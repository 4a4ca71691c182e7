(* The repository benchmark: host speed of the simulator on three fixed
   workloads, end to end and layer by layer.  perfbench/README.md says
   why each workload was chosen and which layer metric should move which
   end-to-end metric.

     bash perfbench/run.sh --workload oltp_fig8 --seed 41 --seconds 30 --trace 0

   [--trace 0] reports the end-to-end metrics of untraced timed passes;
   [--trace 1] runs the same passes, then one traced pass, and reports
   the per-layer metrics.  The last line of standard output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}. *)

module Trace = Dipc_sim.Trace
module Checker = Dipc_sim.Checker
module Breakdown = Dipc_sim.Breakdown
module Machine = Dipc_hw.Machine
module Apl_cache = Dipc_hw.Apl_cache
module Types = Dipc_core.Types
module Scenario = Dipc_core.Scenario
module System = Dipc_core.System
module M = Dipc_workloads.Microbench
module O = Dipc_workloads.Oltp
module OL = Dipc_workloads.Openload
module Golden = Dipc_bench_suite.Golden

let now_ns = Spans.now_ns

let span = Spans.with_span

(* ------------------------------------------------------------------ *)
(* The fixed experiment definitions. *)

let oltp_cells = [ (O.Linux, "linux"); (O.Dipc, "dipc"); (O.Ideal, "ideal") ]

(* The four dIPC policies of Figure 5. *)
let policies =
  let high = Types.props_high in
  [
    ("same_low", fun () -> Scenario.make ~same_process:true ());
    ( "same_high",
      fun () ->
        Scenario.make ~same_process:true ~caller_props:high ~callee_props:high ()
    );
    ("proc_low", fun () -> Scenario.make ());
    ("proc_high", fun () -> Scenario.make ~caller_props:high ~callee_props:high ());
  ]

(* The kernel primitives of Figure 5, named as in bench/BENCH_baseline.json. *)
let primitives =
  [
    ("sem_same", M.Sem, true);
    ("sem_diff", M.Sem, false);
    ("pipe_same", M.Pipe, true);
    ("pipe_diff", M.Pipe, false);
    ("l4_same", M.L4, true);
    ("rpc_same", M.Local_rpc, true);
    ("rpc_diff", M.Local_rpc, false);
  ]

(* Microbench.run's calibrated defaults, spelled out so the round-trip
   count per run is known. *)
let micro_warmup = 20

let micro_iters = 200

let micro_roundtrips = micro_warmup + micro_iters

(* Warm dIPC calls per policy per pass: enough that the CODOMs machine
   takes most of a fig5_calls pass. *)
let warm_calls = 10_000

(* The `--open poisson` sweep: primitives in cost-calibration order. *)
let open_prims = [ "sem"; "pipe"; "l4"; "rpc"; "dipc" ]

let open_loads = [ 0.30; 0.50; 0.70; 0.85; 0.95; 1.05; 1.20 ]

let open_sessions = 30_000

(* ------------------------------------------------------------------ *)
(* Metric catalogue: exactly the names BENCHMARK.json lists.  Every run
   prints every metric of its kind; a layer that a workload never
   enters reads 0. *)

let end_to_end =
  [ ("setup_s", "s"); ("pass_s", "s"); ("requests_per_s", "1/s"); ("peak_rss_mb", "MB") ]

let per_layer =
  let each prefix names unit_ = List.map (fun n -> (prefix ^ n, unit_)) names in
  let cells = List.map snd oltp_cells and pols = List.map fst policies in
  List.concat
    [
      each "workloads.oltp.run_s." cells "s";
      each "workloads.oltp.minor_words_per_event." cells "words";
      [
        ("workloads.openload.ns_per_request", "ns");
        ("workloads.openload.minor_words_per_request", "words");
        ("sim.engine.events_per_s", "1/s");
      ];
      each "sim.engine."
        [ "scheds_per_op"; "spawns_per_op"; "suspends_per_op"; "resumes_per_op" ]
        "count";
      [ ("sim.trace.ns_per_event", "ns"); ("sim.trace.overhead_s", "s") ];
      each "kernel."
        [ "ctxsw_per_op"; "ipi_per_op"; "syscalls_per_op"; "charges_per_op" ]
        "count";
      each "kernel." [ "user_frac"; "kernel_frac"; "idle_frac" ] "ratio";
      each "ipc.us_per_roundtrip." (List.map (fun (n, _, _) -> n) primitives) "us";
      each "core.make_us." pols "us";
      each "core.cold_call_us." pols "us";
      each "core.warm_call_ns." pols "ns";
      each "core.minor_words_per_call." pols "words";
      [
        ("core.call_ns_p50", "ns");
        ("core.call_ns_p99", "ns");
        ("core.call_samples", "count");
      ];
      each "hw.instret_per_call." pols "count";
      each "hw." [ "sb_hits_per_call"; "sb_xlate_per_call"; "side_exits_per_call" ] "count";
      each "hw." [ "ras_hit_ratio"; "ic_hit_ratio"; "apl_cache_hit_ratio" ] "ratio";
      [
        ("hw.minor_words_per_instr", "words");
        ("hw.sim_mips", "MIPS");
        ("harness.self_frac", "ratio");
      ];
    ]

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* ------------------------------------------------------------------ *)
(* Failure accounting.  Every operation the benchmark drives is checked;
   a wrong output or an exception is a failed operation, never a
   dropped sample. *)

let attempted = ref 0

let failed = ref 0

let failure_notes = ref []

let fail what =
  incr failed;
  if List.length !failure_notes < 20 then failure_notes := what :: !failure_notes

(* Run one checked operation; [None] when it raised. *)
let op what f check =
  incr attempted;
  match f () with
  | exception e ->
      fail (what ^ ": raised " ^ Printexc.to_string e);
      None
  | v ->
      (match check v with
      | Ok () -> ()
      | Error why -> fail (what ^ ": " ^ why)
      | exception e -> fail (what ^ ": check raised " ^ Printexc.to_string e));
      Some v

let all_ok = List.fold_left (fun acc r -> if Result.is_ok acc then r else acc) (Ok ())

let expect what pp ~expected actual =
  if expected = actual then Ok ()
  else Error (Printf.sprintf "%s: expected %s, got %s" what (pp expected) (pp actual))

let when_ cond r = if cond then r else Ok ()

(* Same seed, same result: every pass of a run must reproduce the first. *)
let repeats tbl key v =
  match Hashtbl.find_opt tbl key with
  | None ->
      Hashtbl.replace tbl key v;
      Ok ()
  | Some v0 when v0 = v -> Ok ()
  | Some _ -> Error "result differs from this run's first pass"

(* ------------------------------------------------------------------ *)
(* Reference values.  Digests and per-experiment metrics are read from
   the repository's pinned baseline, bench/BENCH_baseline.json, with the
   parser the repository's own golden checks use.  The baseline writes
   one experiment object per line, so a row's metric is read from the
   line that names it. *)

let baseline_path = "bench/BENCH_baseline.json"

type baseline = {
  golden : string;
  rows : (string * (string * string)) list;  (* name -> digest, metric *)
}

let load_baseline () =
  let text = Golden.read_file baseline_path in
  let golden =
    match Golden.scalar_string text "golden_digest" with
    | Some d -> d
    | None -> failwith (baseline_path ^ ": no golden_digest")
  in
  let metrics =
    List.filter_map
      (fun l ->
        match (Golden.scalar_string l "name", Golden.scalar_float l "metric") with
        | Some n, Some v -> Some (n, Printf.sprintf "%.6f" v)
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  let row (name, digest) =
    Option.map (fun m -> (name, (digest, m))) (List.assoc_opt name metrics)
  in
  { golden; rows = List.filter_map row (Golden.parse_report text) }

let pinned b name =
  match List.assoc_opt name b.rows with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: no experiment %s" baseline_path name)

(* The baseline prints metrics with six decimals. *)
let expect_metric what ~expected actual =
  expect what Fun.id ~expected (Printf.sprintf "%.6f" actual)

(* Outputs the baseline does not carry, at the default seed, as the
   simulator produced them when this benchmark was written. *)
let pinned_oltp_ops = [ ("linux", 785); ("dipc", 1440); ("ideal", 1440) ]

(* One row per primitive of [open_prims], one column per load of
   [open_loads]: the digests `bench --open poisson` prints. *)
let pinned_open_digests =
  [
    "6ab08aaf33b32e2b"; "1c59a4c7aecb1dd9"; "74f6b484a07b0851"; "0ffb2d124e47f14d"; "ab4da68a17df0038"; "ceb2b48f9b3fcaf1"; "2b33972c777ab751";
    "3daebad5800a402b"; "1336cd90d88d17b6"; "02b0430d3ef1752e"; "bfc94fefffccdbb0"; "099e1d746715ec44"; "d3352a8fa9c2a21a"; "412ffe3c6888055e";
    "25494bad9c6dd9d2"; "adbcf820e031bfcf"; "fbc468213d4a972e"; "67e2a1ab0966eced"; "c4223aec9a6f5d39"; "64130bb45d4e462c"; "8bcebb8a0d8aba05";
    "2f161effc4fc312a"; "e18291ac029fa724"; "cec286829c9c26f9"; "7b786be824809c1e"; "b3e8d44fc53bd3fe"; "e900c87a717e96df"; "61323b8def65e280";
    "3c42e515611935fe"; "eab4f164391cf3b9"; "1662d988f6f17afe"; "f73bf55a37079918"; "616535f683c5b188"; "c52359ae2b637173"; "b261561840d3e9f0";
  ]

(* ------------------------------------------------------------------ *)
(* Inputs.  The benchmark owns the seed; the simulator only ever sees
   what is generated from it.  The default seed reproduces the
   calibrated seeds of the paper's experiments. *)

let default_seed = 41

(* The `--open` sweep's per-cell seeds at the default seed, shifted by
   the seed otherwise. *)
let open_cell_seed ~seed ~prim_idx ~load_idx =
  0xD1BC + (97 * prim_idx) + load_idx + (1_000_003 * (seed - default_seed))

(* splitmix64 *)
let next_random state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* A call argument: small enough that a + b cannot wrap. *)
let random_arg state = Int64.to_int (Int64.shift_right_logical (next_random state) 34)

(* ------------------------------------------------------------------ *)
(* The traced pass: a per-kind event counter chained in front of the
   online invariant checker, installed only on engine-driven runs.  The
   CODOMs machine is never traced: an enabled tracer would switch it to
   its reference stepper, so what ran would not be what was timed. *)

let counted_kinds = Trace.[ Sched; Spawn; Suspend; Resume; Ctxsw; Ipi; Syscall; Charge ]

type counts = {
  by_kind : int array;  (* indexed like [counted_kinds] *)
  mutable events : int;
  mutable ops : int;  (* simulated operations the counted runs served *)
}

let new_counts () =
  { by_kind = Array.make (List.length counted_kinds) 0; events = 0; ops = 0 }

let kind_slot =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i k -> Hashtbl.replace tbl k i) counted_kinds;
  Hashtbl.find_opt tbl

let count_of c k = match kind_slot k with Some i -> c.by_kind.(i) | None -> 0

(* Run [f] with a fresh tracer whose sink counts into [c] and feeds a
   checker; returns [f]'s value, the replay digest and the event total. *)
let traced_run c f =
  let tr = Trace.create ~capacity:4096 () in
  let chk = Checker.create () in
  Trace.set_sink tr
    (Some
       (fun ev ->
         Checker.on_event chk ev;
         match kind_slot ev.Trace.e_kind with
         | Some i -> c.by_kind.(i) <- c.by_kind.(i) + 1
         | None -> ()));
  let r = f tr chk in
  Trace.set_sink tr None;
  c.events <- c.events + Trace.total tr;
  (r, Trace.digest_hex tr, Trace.total tr)

let checker_finish chk ?quiescent ?expect () =
  match Checker.finish ?quiescent ?expect chk with
  | () -> Ok ()
  | exception Checker.Violation v ->
      Error (Format.asprintf "checker: %a" Checker.pp_violation v)

(* ------------------------------------------------------------------ *)
(* Workloads.  [setup] prepares the inputs and returns the function
   that installs them for the passes (it is repeated to time it; only
   the first set-up is installed).  A pass runs the whole fixed input
   set once and returns the simulated requests it served; it is traced
   when given counters.  [after_pass] runs outside the timed window. *)

type workload = {
  setup : unit -> unit -> unit;
  pass : counts option -> int;
  after_pass : unit -> unit;
  layer : Spans.span list -> (string * float) list;
  report : unit -> string list;
}

let median_or_zero = function [] -> 0. | xs -> Stats.median xs

(* Host time per pass is averaged, not taken as a median: on a shared
   host whose speed swings between fast and slow spells lasting several
   passes, a run's median jumps with whichever spell holds half of its
   passes, while its mean moves with the share of each (over ten runs
   on a 2-vCPU VM: spread 0.17 for the mean against 0.24 for the
   median; see perfbench/README.md). *)
let pass_mean ?(phase = "timed") spans named =
  match Spans.per_pass spans ~phase named with [] -> 0. | xs -> Stats.mean xs

let words_mean spans named =
  match Spans.per_pass ~f:(fun s -> s.Spans.minor_words) spans ~phase:"timed" named with
  | [] -> 0.
  | xs -> Stats.mean xs

let setup_median spans named = median_or_zero (Spans.per_pass spans ~phase:"setup" named)

let ratio a b = if b = 0. then 0. else a /. b

let rel_err ~paper x = 100. *. Float.abs (x -. paper) /. paper

(* --- oltp_fig8: the closed-loop OLTP stack, Figure 8 in-memory 96 --- *)

let oltp_fig8 ~seed (b : baseline) =
  let first = Hashtbl.create 3 and events = Hashtbl.create 3 in
  let results = Hashtbl.create 3 in
  (* Oltp.run builds its engine, kernel, processes and 96 threads per
     tier inside the call, so set-up times that construction alone: each
     cell run over a zero-length window, in which no operation
     completes.  The passes build their own stacks. *)
  let empty_window =
    Some { (O.default_params ~db_mode:O.In_memory ~threads:96) with O.warmup = 0.; duration = 0. }
  in
  let setup () =
    List.iter
      (fun (config, cell) ->
        ignore
          (op ("build oltp stack " ^ cell)
             (fun () ->
               span ("Oltp.run/build/" ^ cell) (fun () ->
                   O.run ~params_override:empty_window ~seed ~config ~db_mode:O.In_memory
                     ~threads:96 ()))
             (fun r -> expect "r_ops" string_of_int ~expected:0 r.O.r_ops)))
      oltp_cells;
    ignore
  in
  let cell_pass counts (config, cell) =
    let run ?trace () =
      span ("Oltp.run/" ^ cell) (fun () ->
          O.run ~seed ?trace ~config ~db_mode:O.In_memory ~threads:96 ())
    in
    let name = "oltp_" ^ cell ^ "_mem96" in
    let check (r : O.result) =
      let _, tput = pinned b name in
      all_ok
        [
          repeats first cell
            (r.O.r_ops, r.O.r_throughput_opm, r.O.r_user_frac, r.O.r_kernel_frac);
          (if r.O.r_ops > 0 then Ok () else Error "no operation completed");
          when_ (seed = default_seed)
            (all_ok
               [
                 expect "r_ops" string_of_int ~expected:(List.assoc cell pinned_oltp_ops)
                   r.O.r_ops;
                 expect_metric "throughput_opm" ~expected:tput r.O.r_throughput_opm;
               ]);
        ]
    in
    let what = Printf.sprintf "%s seed %d" name seed in
    let r =
      match counts with
      | None -> op what (fun () -> run ()) check
      | Some c ->
          op what
            (fun () ->
              traced_run c (fun tr chk ->
                  let r = run ~trace:tr () in
                  (r, checker_finish chk ~quiescent:false ())))
            (fun ((r, fin), d, _) ->
              all_ok
                [
                  check r;
                  fin;
                  when_ (seed = default_seed)
                    (expect "digest" Fun.id ~expected:(fst (pinned b name)) d);
                ])
          |> Option.map (fun ((r, _), _, total) ->
                 Hashtbl.replace events cell total;
                 c.ops <- c.ops + r.O.r_ops;
                 r)
    in
    match r with
    | None -> 0
    | Some r ->
        Hashtbl.replace results cell r;
        r.O.r_ops
  in
  let pass counts = List.fold_left (fun n cell -> n + cell_pass counts cell) 0 oltp_cells in
  let result cell = Hashtbl.find_opt results cell in
  let mean_frac f =
    let rs = List.filter_map (fun (_, cell) -> result cell) oltp_cells in
    ratio (List.fold_left (fun a r -> a +. f r) 0. rs) (float_of_int (List.length rs))
  in
  let layer spans =
    List.concat_map
      (fun (_, cell) ->
        let ev = float_of_int (Option.value (Hashtbl.find_opt events cell) ~default:0) in
        [
          ("workloads.oltp.run_s." ^ cell, pass_mean spans (( = ) ("Oltp.run/" ^ cell)));
          ( "workloads.oltp.minor_words_per_event." ^ cell,
            ratio (words_mean spans (( = ) ("Oltp.run/" ^ cell))) ev );
        ])
      oltp_cells
    @ [
        ("kernel.user_frac", mean_frac (fun r -> r.O.r_user_frac));
        ("kernel.kernel_frac", mean_frac (fun r -> r.O.r_kernel_frac));
        ("kernel.idle_frac", mean_frac (fun r -> r.O.r_idle_frac));
      ]
  in
  let report () =
    List.filter_map
      (fun (_, cell) ->
        Option.map
          (fun r ->
            Printf.sprintf
              "oltp %-5s: r_ops %d  throughput_opm %.1f  user %.4f  kernel %.4f  idle %.4f"
              cell r.O.r_ops r.O.r_throughput_opm r.O.r_user_frac r.O.r_kernel_frac
              r.O.r_idle_frac)
          (result cell))
      oltp_cells
    @
    match (result "linux", result "ideal") with
    | Some lx, Some id ->
        let x = id.O.r_throughput_opm /. lx.O.r_throughput_opm in
        [
          Printf.sprintf
            "paper_err_pct %.2f %% (simulated): Ideal/Linux throughput %.3fx vs Figure 1's 1.92x"
            (rel_err ~paper:1.92 x) x;
        ]
    | _ -> []
  in
  { setup; pass; after_pass = ignore; layer; report }

(* --- fig5_calls: Figure 5's synchronous calls ----------------------- *)

type scen = {
  policy : string;
  sc : Scenario.t;
  arg_a : int array;
  arg_b : int array;
  (* deltas over the latest warm batch; deterministic *)
  mutable d_instret : int;
  mutable d_sim_ns : float;
  mutable d_ctr : int array;  (* sb_hits sb_xlate side_exits ras_h ras_m ic_h ic_m apl_h apl_m *)
}

let hw_counters (s : scen) =
  let mach = System.machine s.sc.Scenario.sys in
  let ctx = s.sc.Scenario.thread.System.t_ctx in
  let hits, misses, _ = Apl_cache.stats ctx.Machine.apl_cache in
  Machine.
    [|
      mach.ctr_sb_hits; mach.ctr_sb_translations; mach.ctr_side_exits; mach.ctr_ras_hits;
      mach.ctr_ras_misses; mach.ctr_ic_hits; mach.ctr_ic_misses; hits; misses;
    |]

let fig5_calls ~seed (b : baseline) =
  let scens = ref [] in
  let first = Hashtbl.create 8 in
  let micro = Hashtbl.create 8 in
  let samples = Array.make (warm_calls * List.length policies) 0. in
  let pcts = ref [] (* (p50, p99) per timed pass *) in
  let setup () =
    let rng = ref (Int64.of_int seed) in
    let built =
      List.filter_map
        (fun (policy, make) ->
          let arg_a = Array.init warm_calls (fun _ -> random_arg rng) in
          let arg_b = Array.init warm_calls (fun _ -> random_arg rng) in
          let a = arg_a.(0) and bb = arg_b.(0) in
          op ("make and cold call " ^ policy)
            (fun () ->
              let sc = span ("Scenario.make/" ^ policy) make in
              (sc, span ("Scenario.call/cold/" ^ policy) (fun () -> Scenario.call sc ~args:[ a; bb ])))
            (function
              | _, Ok v -> expect "a+b" string_of_int ~expected:(a + bb) v
              | _, Error f -> Error (Dipc_hw.Fault.to_string f))
          |> Option.map (fun (sc, _) ->
                 { policy; sc; arg_a; arg_b; d_instret = 0; d_sim_ns = 0.; d_ctr = [||] }))
        policies
    in
    fun () -> scens := built
  in
  let micro_pass counts (name, prim, same_cpu) =
    let run ?trace () =
      span ("Microbench.run/" ^ name) (fun () ->
          M.run ~warmup:micro_warmup ~iters:micro_iters ?trace ~same_cpu prim)
    in
    let check (r : M.result) =
      all_ok
        [
          repeats first name r.M.mean_ns;
          expect_metric "mean_ns" ~expected:(snd (pinned b name)) r.M.mean_ns;
        ]
    in
    let r =
      match counts with
      | None -> op name (fun () -> run ()) check
      | Some c ->
          op name
            (fun () ->
              traced_run c (fun tr chk ->
                  let r = run ~trace:tr () in
                  (r, checker_finish chk ~quiescent:(prim <> M.L4) ~expect:r.M.lifetime ())))
            (fun ((r, fin), d, _) ->
              all_ok [ check r; fin; expect "digest" Fun.id ~expected:(fst (pinned b name)) d ])
          |> Option.map (fun ((r, _), _, _) ->
                 c.ops <- c.ops + micro_roundtrips;
                 r)
    in
    Option.iter (Hashtbl.replace micro name) r;
    micro_roundtrips
  in
  (* The golden replay configuration: Sem, same CPU, 5 warm-up and 20
     measured round trips.  Traced pass only, and outside the counts. *)
  let golden () =
    ignore
      (op "golden_sem_same"
         (fun () ->
           traced_run (new_counts ()) (fun tr chk ->
               let r =
                 span "golden/Microbench.run" (fun () ->
                     M.run ~warmup:5 ~iters:20 ~trace:tr ~same_cpu:true M.Sem)
               in
               checker_finish chk ~expect:r.M.lifetime ()))
         (fun (fin, d, _) -> all_ok [ fin; expect "golden digest" Fun.id ~expected:b.golden d ]))
  in
  let warm_batch k s =
    let ctx = s.sc.Scenario.thread.System.t_ctx in
    let i0 = ctx.Machine.instret and c0 = ctx.Machine.cost and h0 = hw_counters s in
    span ("Scenario.call/warm/" ^ s.policy) (fun () ->
        for i = 0 to warm_calls - 1 do
          let a = s.arg_a.(i) and bb = s.arg_b.(i) in
          let t0 = now_ns () in
          let wrong =
            match Scenario.call s.sc ~args:[ a; bb ] with
            | Ok v when v = a + bb -> None
            | Ok v -> Some (Printf.sprintf "%d + %d returned %d" a bb v)
            | Error f -> Some (Dipc_hw.Fault.to_string f)
            | exception e -> Some ("raised " ^ Printexc.to_string e)
          in
          samples.(k + i) <- float_of_int (now_ns () - t0);
          incr attempted;
          Option.iter (fun why -> fail ("warm call " ^ s.policy ^ ": " ^ why)) wrong
        done);
    s.d_instret <- ctx.Machine.instret - i0;
    s.d_sim_ns <- ctx.Machine.cost -. c0;
    s.d_ctr <- Array.map2 ( - ) (hw_counters s) h0
  in
  let pass counts =
    let micro_reqs = List.fold_left (fun n p -> n + micro_pass counts p) 0 primitives in
    if Option.is_some counts then golden ();
    List.iteri (fun j s -> warm_batch (j * warm_calls) s) !scens;
    micro_reqs + Array.length samples
  in
  let after_pass () =
    if !Spans.cur_phase = "timed" then begin
      let a = Array.copy samples in
      Array.sort Float.compare a;
      (* The tail rule only guards that the pass has enough samples for
         a p99; the value recorded is the p99 itself. *)
      match Stats.tail_percentile a with
      | Some (q, _) when q >= 99. ->
          pcts := (Stats.percentile a 50., Stats.percentile a 99.) :: !pcts
      | _ -> fail "fewer warm-call samples than a p99 needs"
    end
  in
  let mean_ns name = Option.map (fun r -> r.M.mean_ns) (Hashtbl.find_opt micro name) in
  let sim_call p =
    List.find_map
      (fun s -> if s.policy = p then Some (s.d_sim_ns /. float_of_int warm_calls) else None)
      !scens
  in
  (* Figure 5's four headline ratios: (what, simulated, paper). *)
  let headline () =
    match
      ( mean_ns "rpc_same", mean_ns "l4_same", mean_ns "sem_same", sim_call "proc_high",
        sim_call "proc_low" )
    with
    | Some rpc, Some l4, Some sem, Some high, Some low ->
        [
          ("dIPC+proc High vs local RPC", rpc /. high, 64.12);
          ("dIPC+proc High vs L4", l4 /. high, 8.87);
          ("dIPC+proc High vs Sem.", sem /. high, 14.16);
          ("dIPC+proc Low vs local RPC", rpc /. low, 120.67);
        ]
    | _ -> []
  in
  let layer spans =
    let scens = !scens in
    let total_calls = float_of_int (warm_calls * List.length scens) in
    let ctr i = float_of_int (List.fold_left (fun a s -> a + s.d_ctr.(i)) 0 scens) in
    let instret = float_of_int (List.fold_left (fun a s -> a + s.d_instret) 0 scens) in
    let warm = String.starts_with ~prefix:"Scenario.call/warm/" in
    let bd = Breakdown.create () in
    Hashtbl.iter
      (fun _ r ->
        List.iter
          (fun cat -> Breakdown.charge bd cat (Breakdown.get r.M.total_breakdown cat))
          Breakdown.all_categories)
      micro;
    let total = Breakdown.total bd in
    let user = Breakdown.get bd Breakdown.User_code +. Breakdown.get bd Breakdown.Stub in
    let idle = Breakdown.get bd Breakdown.Idle in
    List.map
      (fun (name, _, _) ->
        ( "ipc.us_per_roundtrip." ^ name,
          pass_mean spans (( = ) ("Microbench.run/" ^ name)) /. float_of_int micro_roundtrips *. 1e6
        ))
      primitives
    @ List.concat_map
        (fun s ->
          let p = s.policy in
          let n = float_of_int warm_calls in
          [
            ("core.make_us." ^ p, setup_median spans (( = ) ("Scenario.make/" ^ p)) *. 1e6);
            ("core.cold_call_us." ^ p, setup_median spans (( = ) ("Scenario.call/cold/" ^ p)) *. 1e6);
            ("core.warm_call_ns." ^ p, pass_mean spans (( = ) ("Scenario.call/warm/" ^ p)) /. n *. 1e9);
            ("core.minor_words_per_call." ^ p, words_mean spans (( = ) ("Scenario.call/warm/" ^ p)) /. n);
            ("hw.instret_per_call." ^ p, float_of_int s.d_instret /. n);
          ])
        scens
    @ [
        ("core.call_ns_p50", median_or_zero (List.map fst !pcts));
        ("core.call_ns_p99", median_or_zero (List.map snd !pcts));
        ("core.call_samples", float_of_int (List.length !pcts * Array.length samples));
        ("hw.sb_hits_per_call", ratio (ctr 0) total_calls);
        ("hw.sb_xlate_per_call", ratio (ctr 1) total_calls);
        ("hw.side_exits_per_call", ratio (ctr 2) total_calls);
        ("hw.ras_hit_ratio", ratio (ctr 3) (ctr 3 +. ctr 4));
        ("hw.ic_hit_ratio", ratio (ctr 5) (ctr 5 +. ctr 6));
        ("hw.apl_cache_hit_ratio", ratio (ctr 7) (ctr 7 +. ctr 8));
        ("hw.minor_words_per_instr", ratio (words_mean spans warm) instret);
        ("hw.sim_mips", ratio instret (pass_mean spans warm *. 1e6));
        ("kernel.user_frac", ratio user total);
        ("kernel.kernel_frac", ratio (total -. user -. idle) total);
        ("kernel.idle_frac", ratio idle total);
      ]
  in
  let report () =
    let h = headline () in
    List.map
      (fun s ->
        Printf.sprintf "dipc %-9s: %d instructions, %.1f simulated ns per warm call" s.policy
          (s.d_instret / warm_calls) (s.d_sim_ns /. float_of_int warm_calls))
      !scens
    @ List.map (fun (what, x, paper) -> Printf.sprintf "  %-28s %7.2fx (paper %.2fx)" what x paper) h
    @
    if h = [] then []
    else
      [
        Printf.sprintf "paper_err_pct %.2f %% (simulated): mean over Figure 5's headline ratios"
          (List.fold_left (fun a (_, x, paper) -> a +. rel_err ~paper x) 0. h
          /. float_of_int (List.length h));
      ]
  in
  { setup; pass; after_pass; layer; report }

(* --- open_sweep: the `--open poisson` load sweep --------------------- *)

let open_sweep ~seed (b : baseline) =
  let cells = ref [] in
  let first = Hashtbl.create 64 in
  let results = Hashtbl.create 64 in
  let setup () =
    let cross name prim =
      op ("calibrate " ^ name)
        (fun () -> span ("Microbench.run/" ^ name) (fun () -> (M.run ~same_cpu:false prim).M.mean_ns))
        (fun ns ->
          match List.assoc_opt name b.rows with
          | Some (_, mean) -> expect_metric "mean_ns" ~expected:mean ns
          | None -> Ok ())
    in
    let dipc =
      op "calibrate dipc"
        (fun () ->
          let sc =
            span "Scenario.make/proc_high" (fun () ->
                Scenario.make ~caller_props:Types.props_high ~callee_props:Types.props_high ())
          in
          span "Scenario.measure/proc_high" (fun () -> (Scenario.measure sc).Dipc_sim.Stats.s_mean))
        (fun _ -> Ok ())
    in
    let costs =
      [
        cross "sem_diff" M.Sem; cross "pipe_diff" M.Pipe; cross "l4_diff" M.L4;
        cross "rpc_diff" M.Local_rpc; dipc;
      ]
    in
    (* A primitive whose calibration failed has no cells (its failure
       is already counted). *)
    let built =
      List.concat
        (List.mapi
           (fun prim_idx (prim, cost) ->
             match cost with
             | None -> []
             | Some service_ns ->
                 List.mapi
                   (fun load_idx load ->
                     let p =
                       OL.default_params
                         ~seed:(open_cell_seed ~seed ~prim_idx ~load_idx)
                         ~sessions:open_sessions ~offered_load:load ~arrival:OL.Poisson
                         ~service_ns ()
                     in
                     ((prim_idx * List.length open_loads) + load_idx, prim, load, p))
                   open_loads)
           (List.combine open_prims costs))
    in
    fun () -> cells := built
  in
  let pass _counts =
    List.fold_left
      (fun reqs (k, prim, load, p) ->
        let r =
          op
            (Printf.sprintf "open %s rho=%.2f seed %d" prim load p.OL.seed)
            (fun () -> span ("Openload.run/" ^ prim) (fun () -> OL.run p))
            (fun r ->
              all_ok
                [
                  repeats first k r.OL.r_digest;
                  expect "sessions" string_of_int ~expected:open_sessions r.OL.r_sessions;
                  when_ (seed = default_seed)
                    (expect "digest" Fun.id ~expected:(List.nth pinned_open_digests k)
                       r.OL.r_digest);
                ])
        in
        match r with
        | None -> reqs
        | Some r ->
            Hashtbl.replace results k r;
            reqs + r.OL.r_requests)
      0 !cells
  in
  let requests () = Hashtbl.fold (fun _ r a -> a + r.OL.r_requests) results 0 in
  let layer spans =
    let openload = String.starts_with ~prefix:"Openload.run/" in
    let reqs = float_of_int (requests ()) in
    [
      ("workloads.openload.ns_per_request", ratio (pass_mean spans openload *. 1e9) reqs);
      ("workloads.openload.minor_words_per_request", ratio (words_mean spans openload) reqs);
    ]
  in
  let report () =
    List.map
      (fun (k, prim, load, p) ->
        match Hashtbl.find_opt results k with
        | Some r ->
            Printf.sprintf "open %-4s rho=%.2f seed %d: %d requests  digest %s" prim load
              p.OL.seed r.OL.r_requests r.OL.r_digest
        | None -> Printf.sprintf "open %-4s rho=%.2f: failed" prim load)
      !cells
    @ [
        Printf.sprintf "open sweep: %d sessions, %d requests per pass"
          (Hashtbl.length results * open_sessions) (requests ());
        "paper_err_pct: none; the repository holds no reference for open-arrival \
         latency, so this workload is unvalidated";
      ]
  in
  { setup; pass; after_pass = ignore; layer; report }

let workloads = [ ("oltp_fig8", oltp_fig8); ("fig5_calls", fig5_calls); ("open_sweep", open_sweep) ]

(* ------------------------------------------------------------------ *)
(* Layer metrics every workload shares: the engine and kernel event
   counts of the traced pass, the tracing overhead, and the benchmark's
   own share of a pass. *)

let shared_layer spans (c : counts) =
  let engine n = String.starts_with ~prefix:"Oltp.run/" n || String.starts_with ~prefix:"Microbench.run/" n in
  let untraced = pass_mean spans engine in
  let traced = pass_mean ~phase:"traced" spans engine in
  let events = float_of_int c.events and ops = float_of_int c.ops in
  let per_op k = ratio (float_of_int (count_of c k)) ops in
  let self = Spans.self_s spans in
  let self_frac =
    median_or_zero
      (List.filter_map
         (fun s ->
           if s.Spans.phase = "timed" && s.Spans.name = "pass" then
             Some (ratio (self s) (Spans.dur_s s))
           else None)
         spans)
  in
  [
    ("sim.engine.events_per_s", ratio events untraced);
    ("sim.engine.scheds_per_op", per_op Trace.Sched);
    ("sim.engine.spawns_per_op", per_op Trace.Spawn);
    ("sim.engine.suspends_per_op", per_op Trace.Suspend);
    ("sim.engine.resumes_per_op", per_op Trace.Resume);
    ("sim.trace.ns_per_event", ratio ((traced -. untraced) *. 1e9) events);
    ( "sim.trace.overhead_s",
      pass_mean ~phase:"traced" spans (( = ) "pass") -. pass_mean spans (( = ) "pass") );
    ("kernel.ctxsw_per_op", per_op Trace.Ctxsw);
    ("kernel.ipi_per_op", per_op Trace.Ipi);
    ("kernel.syscalls_per_op", per_op Trace.Syscall);
    ("kernel.charges_per_op", per_op Trace.Charge);
    ("harness.self_frac", self_frac);
  ]

(* ------------------------------------------------------------------ *)
(* Self-test of the benchmark's own statistics and names. *)

let self_test () =
  let ok = ref true in
  let case what c =
    if not c then begin
      ok := false;
      prerr_endline ("perfbench self-test failed: " ^ what)
    end
  in
  let upto n = List.init n (fun i -> float_of_int (i + 1)) in
  case "mean" (Stats.mean [ 1.; 2.; 6. ] = 3.);
  case "median, odd count" (Stats.median [ 3.; 1.; 2. ] = 2.);
  case "median, even count" (Stats.median [ 4.; 1.; 3.; 2. ] = 2.5);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  case "quartiles of 1..10" (Stats.quartiles (upto 10) = (2.75, 5.5, 8.25));
  (* statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5] *)
  case "quartiles of 1..5" (Stats.quartiles [ 5.; 3.; 1.; 4.; 2. ] = (1.5, 3., 4.5));
  case "spread of 1..10" (Stats.rel_spread (upto 10) = 5.5 /. 5.5);
  let tail n = Stats.tail_percentile (Array.of_list (upto n)) in
  case "p99 needs 1000 samples" (tail 1000 = Some (99., 990.));
  case "999 samples fall back to p90" (tail 999 = Some (90., 900.));
  case "10000 samples reach p99.9" (tail 10_000 = Some (99.9, 9990.));
  (* One fig5_calls pass: 4 policies x 10,000 warm calls. *)
  case "40000 samples reach p99.9" (tail 40_000 = Some (99.9, 39960.));
  case "p99 of 40000 samples"
    (Stats.percentile (Array.of_list (upto 40_000)) 99. = 39600.);
  case "20 samples give only the median" (tail 20 = Some (50., 10.));
  case "10 samples have no tail" (tail 10 = None);
  case "nearest-rank percentile" (Stats.percentile (Array.of_list (upto 100)) 50. = 50.);
  case "name check rejects a space" (not (valid_name "a b"));
  case "name check rejects the empty name" (not (valid_name ""));
  List.iter
    (fun (n, _) -> case ("metric name " ^ n) (valid_name n))
    (end_to_end @ per_layer);
  let names = List.map fst (end_to_end @ per_layer) in
  case "metric names are unique"
    (List.length (List.sort_uniq compare names) = List.length names);
  !ok

(* ------------------------------------------------------------------ *)
(* Run metadata: the commit when the checkout is a git repository, and
   always a digest of the simulator's sources. *)

let git_commit () =
  let read p = String.trim (In_channel.with_open_bin p In_channel.input_all) in
  match read ".git/HEAD" with
  | exception Sys_error _ -> "none (not a git checkout)"
  | head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read (".git/" ^ r) with exception Sys_error _ -> r | c -> c)
  | head -> head

let rec source_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then source_files p else [ p ])

let source_digest () =
  Digest.to_hex
    (Digest.string
       (String.concat "\000"
          (List.concat_map
             (fun p -> [ p; In_channel.with_open_bin p In_channel.input_all ])
             (source_files "lib"))))

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         if String.starts_with ~prefix:"VmHWM:" l then
           Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some (float_of_int kb /. 1024.))
         else None)
  |> Option.value ~default:0.

(* ------------------------------------------------------------------ *)

let setup_reps = 15

let min_passes = 3

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10 in
  let trace = ref 0 in
  let usage =
    "perfbench/run.sh --workload oltp_fig8|fig5_calls|open_sweep [--seed N] [--seconds S] \
     [--trace 0|1]"
  in
  let die msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  (try
     Arg.parse_argv Sys.argv
       [
         ("--workload", Arg.Set_string workload, " workload to run");
         ("--seed", Arg.Set_int seed, " input seed (default 41, the calibrated seeds)");
         ("--seconds", Arg.Set_int seconds, " seconds of timed passes (default 10)");
         ("--trace", Arg.Set_int trace, " 1: add a traced pass and report per-layer metrics");
       ]
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with
  | Arg.Bad msg -> die (List.hd (String.split_on_char '\n' msg))
  | Arg.Help _ -> print_endline usage; exit 0);
  let make =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> die (Printf.sprintf "unknown workload %S" !workload)
  in
  if !seconds < 1 then die "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let traced = !trace = 1 in
  ignore (op "self-test" self_test (fun ok -> if ok then Ok () else Error "see stderr"));
  (* The reference outputs are the benchmark's, not the program's: read
     once, outside any timed span. *)
  let b =
    try load_baseline ()
    with e ->
      prerr_endline ("perfbench: cannot read the pinned baseline: " ^ Printexc.to_string e);
      exit 1
  in
  let w = make ~seed:!seed b in
  (* Set-up = preparing the program's inputs.  The first set-up is the
     one the passes use.  The others are timed and thrown away, spread
     evenly over the timed window: their median then samples the host
     across the run, as the passes do, rather than at a single
     instant. *)
  let setup r =
    Spans.set_pass "setup" r;
    Gc.compact ();
    span "setup" w.setup
  in
  setup 0 ();
  (* One discarded warm-up pass: the first pass pays heap growth. *)
  Spans.set_pass "warmup" 0;
  Gc.compact ();
  ignore (span "pass" (fun () -> w.pass None));
  w.after_pass ();
  (* Peak memory after a fixed amount of work (one set-up and one full
     pass), so a run that gets through more passes does not read
     higher. *)
  let rss = peak_rss_mb () in
  let window = !seconds * 1_000_000_000 in
  let start = now_ns () in
  let next_setup = ref 1 in
  let setup_due () =
    !next_setup < setup_reps && now_ns () >= start + (!next_setup * window / setup_reps)
  in
  let requests = ref [] in
  let i = ref 0 in
  while !i < min_passes || now_ns () < start + window do
    if setup_due () then begin
      let (_ : unit -> unit) = setup !next_setup in
      incr next_setup
    end;
    Spans.set_pass "timed" !i;
    Gc.compact ();
    requests := span "pass" (fun () -> w.pass None) :: !requests;
    w.after_pass ();
    incr i
  done;
  while !next_setup < setup_reps do
    let (_ : unit -> unit) = setup !next_setup in
    incr next_setup
  done;
  let counts = new_counts () in
  if traced then begin
    Spans.set_pass "traced" 0;
    Gc.compact ();
    ignore (span "pass" (fun () -> w.pass (Some counts)))
  end;
  let spans = Spans.all () in
  let pass_times = Spans.per_pass spans ~phase:"timed" (( = ) "pass") in
  let e2e =
    [
      ("setup_s", setup_median spans (( = ) "setup"));
      ("pass_s", Stats.mean pass_times);
      ( "requests_per_s",
        float_of_int (List.fold_left ( + ) 0 !requests)
        /. List.fold_left ( +. ) 0. pass_times );
      ("peak_rss_mb", rss);
    ]
  in
  let metrics = if traced then shared_layer spans counts @ w.layer spans else e2e in
  let catalogue = if traced then per_layer else end_to_end in
  List.iter
    (fun (n, _) -> if not (List.mem_assoc n catalogue) then fail ("metric outside the catalogue: " ^ n))
    metrics;
  List.iter
    (fun (n, v) -> if not (Float.is_finite v) then fail ("metric " ^ n ^ " is not finite"))
    metrics;
  let value n = Option.value (List.assoc_opt n metrics) ~default:0. in
  let commit = git_commit () and src = source_digest () in
  let meta =
    [
      ("workload", !workload); ("seed", string_of_int !seed);
      ("seconds", string_of_int !seconds); ("trace", string_of_int !trace);
      ("commit", commit); ("lib_md5", src); ("ocaml", Sys.ocaml_version);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ]
  in
  if traced then begin
    (try Sys.mkdir "perfbench/out" 0o755 with Sys_error _ -> ());
    let path = Printf.sprintf "perfbench/out/spans-%s-seed%d.json" !workload !seed in
    Spans.write_chrome path ~meta spans;
    Printf.printf "spans: %s (%d)\n" path (List.length spans)
  end;
  List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k v) meta;
  List.iter print_endline (w.report ());
  let q1, _, q3 = Stats.quartiles pass_times in
  Printf.printf "timed passes: %d  pass_s quartiles %.6f .. %.6f  spread %.4f\n"
    (List.length pass_times) q1 q3 (Stats.rel_spread pass_times);
  Printf.printf "pass_s samples: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.6f") pass_times));
  (* Every metric of both kinds, by name and unit; the JSON line below
     carries the kind this run was asked for. *)
  List.iter
    (fun (n, u) ->
      let v = Option.value (List.assoc_opt n (e2e @ metrics)) ~default:0. in
      Printf.printf "%-46s %.6g %s\n" n v u)
    (end_to_end @ per_layer);
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (List.rev !failure_notes);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun (n, u) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_number (value n)) u)
          catalogue))
