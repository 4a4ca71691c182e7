(* In-process interleaved A/B driver for the machine's two dispatchers.

   Arm A is the default dispatch (superblocks + return-address stack +
   indirect inline caches); arm B is the reference stepper
   (--no-block-cache), which compiles and applies one instruction per
   step.  Both run the same instruction semantics, so the A/B measures
   what the compiled path buys.  Each cell's A and B runs execute back
   to back inside ONE process, each from a compacted heap, so CPU
   frequency drift, container scheduling and allocator state hit both
   arms of the same cell alike — much tighter than interleaving whole
   processes.  A discarded warmup pair first touches every code path.

   Only the machine-interpreter cells are run: they are the rows whose
   cost is dominated by instruction dispatch.  Digests must be
   byte-identical across every run and arm (the dispatcher never
   changes the charge order); the driver fails loudly if any run
   disagrees.

   Usage: ab.exe --json FILE [--pairs N] [--warmup N] *)

module Suite = Dipc_bench_suite.Suite
module Machine = Dipc_hw.Machine

let cells =
  [
    ("machine_hotloop", Suite.bench_machine_hotloop);
    ("machine_superblock", Suite.bench_machine_superblock);
    ("machine_callret", Suite.bench_machine_callret);
  ]

type run = { arm : string; compiled : bool; results : Suite.bench_result list }

let run_cell ~compiled f =
  Machine.set_default_block_cache compiled;
  Gc.compact ();
  let r = f () in
  Machine.set_default_block_cache true;
  r

(* One pair = for each cell, its A and B runs back to back — the finest
   interleaving grain, so slow drift (CPU frequency, container
   scheduling) lands on both arms of the same cell alike. *)
let run_pair () =
  let ab =
    List.map
      (fun (_, f) -> (run_cell ~compiled:true f, run_cell ~compiled:false f))
      cells
  in
  ( { arm = "A"; compiled = true; results = List.map fst ab },
    { arm = "B"; compiled = false; results = List.map snd ab } )

let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let () =
  let out = ref "" and pairs = ref 5 and warmup = ref 1 in
  let rec parse = function
    | [] -> ()
    | "--json" :: f :: rest ->
        out := f;
        parse rest
    | "--pairs" :: n :: rest ->
        pairs := int_of_string n;
        parse rest
    | "--warmup" :: n :: rest ->
        warmup := int_of_string n;
        parse rest
    | a :: _ ->
        Printf.eprintf
          "usage: ab.exe --json FILE [--pairs N] [--warmup N] (got %s)\n" a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !out = "" then (
    prerr_endline "usage: ab.exe --json FILE [--pairs N] [--warmup N]";
    exit 2);
  for _ = 1 to !warmup do
    ignore (run_pair ())
  done;
  let runs = ref [] in
  for i = 1 to !pairs do
    let a, b = run_pair () in
    runs := !runs @ [ a; b ];
    let m name r =
      (List.find (fun x -> x.Suite.b_name = name) r.results).Suite.b_metric
    in
    Printf.printf "pair %d: callret A %.3f / B %.3f sim-MIPS\n%!" i
      (m "machine_callret" a) (m "machine_callret" b)
  done;
  let runs = !runs in
  (* Digest identity across every run and arm, per cell. *)
  List.iter
    (fun (name, _) ->
      let ds =
        List.map
          (fun r ->
            (List.find (fun x -> x.Suite.b_name = name) r.results)
              .Suite.b_digest)
          runs
      in
      match ds with
      | [] -> ()
      | d0 :: _ ->
          if not (List.for_all (( = ) d0) ds) then (
            Printf.eprintf "digest drift in %s across A/B runs\n" name;
            exit 1))
    cells;
  let cell name r = List.find (fun x -> x.Suite.b_name = name) r.results in
  let arm_runs a = List.filter (fun r -> r.arm = a) runs in
  let buf = Buffer.create 65536 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\n  \"schema\": \"dipc-bench/ab-v2\",\n";
  add
    "  \"description\": \"Interleaved A/B comparison of the machine's two \
     dispatchers: arm A is the default dispatch (superblocks + return-address \
     stack + indirect inline caches), arm B is the reference stepper \
     (--no-block-cache).  Each cell's A and B runs execute back to back \
     inside one process, each from a compacted heap, after a discarded \
     warmup pair, so thermal/noise drift hits both arms of the same cell \
     alike.  Digests are byte-identical across every run and arm; only \
     wall-clock derived columns move.\",\n";
  add "  \"interleaving\": [%s],\n"
    (String.concat ", " (List.map (fun r -> "\"" ^ r.arm ^ "\"") runs));
  add "  \"summary\": {\n";
  let n_cells = List.length cells in
  List.iteri
    (fun ci (name, _) ->
      let mips a = List.map (fun r -> (cell name r).Suite.b_metric) (arm_runs a) in
      let am = mips "A" and bm = mips "B" in
      let side a =
        match arm_runs a with
        | [] -> 0
        | r :: _ -> List.assoc "side_exits" (cell name r).Suite.b_counters
      in
      add "    \"%s\": {\n" name;
      add "      \"A_mean_sim_mips\": %.3f,\n" (mean am);
      add "      \"B_mean_sim_mips\": %.3f,\n" (mean bm);
      add "      \"A_min_sim_mips\": %.3f,\n" (List.fold_left min infinity am);
      add "      \"B_max_sim_mips\": %.3f,\n" (List.fold_left max 0.0 bm);
      add "      \"speedup_mean\": %.3f,\n" (mean am /. mean bm);
      add "      \"A_side_exits\": %d,\n" (side "A");
      add "      \"B_side_exits\": %d,\n" (side "B");
      add "      \"digest_identical\": true\n";
      add "    }%s\n" (if ci = n_cells - 1 then "" else ","))
    cells;
  add "  },\n";
  add "  \"runs\": [\n";
  let n_runs = List.length runs in
  List.iteri
    (fun ri r ->
      add "    {\n      \"arm\": \"%s\",\n      \"compiled\": %b" r.arm r.compiled;
      List.iter
        (fun (name, _) ->
          let c = cell name r in
          add ",\n      \"%s\": {\n" name;
          add "        \"wall_s\": %.6f,\n" c.Suite.b_wall_s;
          add "        \"sim_mips\": %.3f,\n" c.Suite.b_metric;
          add "        \"instret\": %d,\n" c.Suite.b_instret;
          add "        \"counters\": {%s},\n"
            (String.concat ", "
               (List.map
                  (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v)
                  c.Suite.b_counters));
          add "        \"digest\": \"%s\"\n      }" c.Suite.b_digest)
        cells;
      add "\n    }%s\n" (if ri = n_runs - 1 then "" else ","))
    runs;
  add "  ]\n}\n";
  let oc = open_out !out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  List.iter
    (fun (name, _) ->
      let am = mean (List.map (fun r -> (cell name r).Suite.b_metric) (arm_runs "A")) in
      let bm = mean (List.map (fun r -> (cell name r).Suite.b_metric) (arm_runs "B")) in
      Printf.printf "%-20s A %.3f / B %.3f sim-MIPS  speedup %.3fx\n" name am
        bm (am /. bm))
    cells;
  Printf.printf "wrote %s\n" !out
