(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (EuroSys'17, Vilanova et al.).  The experiments live in
   [bench/suite.ml] (library [dipc_bench_suite]) so the test suite can
   link them.  [usage] below lists the modes and flags. *)

module Suite = Dipc_bench_suite.Suite
module Parallel = Dipc_sim.Parallel

let usage =
  {|usage: main.exe [FLAGS] [MODE | EXPERIMENT...]

  (no arguments)      run every experiment
  EXPERIMENT...       run the named experiments: fig1 fig2 table1 fig5 fig6
                      fig7 fig8 sens-calls sens-caps stub-coopt templates
                      ablate ablate-gvas bechamel

Modes:
  --trace [FILE]      fixed-config traced run, Chrome trace + digest
  --json  [FILE]      fixed-seed digest suite, machine-readable JSON
  --matrix            fault-injection matrix over every IPC primitive and
                      the OLTP/netpipe workloads
  --security          cost-of-isolation posture matrix: {strict, audit,
                      permissive} x {CODOMs, CHERI, MMP} x {clean,
                      under-attack}, both interpreter paths per cell
  --open [ARRIVAL]    open-arrival load sweep: offered load vs tail latency
                      (p50/p99/p999) per IPC primitive vs dIPC, >1M
                      simulated client sessions, saturation knees; ARRIVAL
                      is poisson (default), bursty or diurnal

Flags (recognised anywhere on the command line):
  --check             attach the online invariant checker to traced runs
  --inject SEED       install a seeded fault injector (same seed =>
                      byte-identical injected digest)
  --posture NAME      default enforcement posture (strict | audit |
                      permissive) for machines created by experiments;
                      pinned digests assume strict
  --jobs N            shard independent runs over N domains (0 = one per
                      recommended core); digests and printed results are
                      identical at any N
  --no-block-cache    force the reference interpreter instead of the
                      machine's superblock dispatch; results and digests
                      are identical either way
  -h, --help          print this help and exit
|}

let modes = [ "--trace"; "--json"; "--matrix"; "--security"; "--open" ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec extract check inject jobs acc = function
    | [] -> (check, inject, jobs, List.rev acc)
    | "--check" :: rest -> extract true inject jobs acc rest
    | "--no-block-cache" :: rest ->
        Dipc_hw.Machine.set_default_block_cache false;
        extract check inject jobs acc rest
    | ("-h" | "--help") :: _ ->
        print_string usage;
        exit 0
    | [ "--posture" ] ->
        Printf.eprintf "--posture needs strict | audit | permissive\n";
        exit 2
    | "--posture" :: s :: rest -> (
        match Dipc_hw.Fault.posture_of_string s with
        | Some p ->
            Dipc_hw.Fault.set_default_posture p;
            extract check inject jobs acc rest
        | None ->
            Printf.eprintf "--posture needs strict | audit | permissive, got %S\n" s;
            exit 2)
    | [ "--inject" ] ->
        Printf.eprintf "--inject needs an integer seed\n";
        exit 2
    | "--inject" :: s :: rest -> (
        match int_of_string_opt s with
        | Some seed -> extract check (Some seed) jobs acc rest
        | None ->
            Printf.eprintf "--inject needs an integer seed, got %S\n" s;
            exit 2)
    | [ "--jobs" ] ->
        Printf.eprintf "--jobs needs an integer count\n";
        exit 2
    | "--jobs" :: s :: rest -> (
        match int_of_string_opt s with
        | Some 0 ->
            extract check inject (Parallel.default_jobs ()) acc rest
        | Some n when n > 0 -> extract check inject n acc rest
        | _ ->
            Printf.eprintf "--jobs needs a non-negative integer, got %S\n" s;
            exit 2)
    | x :: _ when String.starts_with ~prefix:"-" x && not (List.mem x modes) ->
        Printf.eprintf "unknown flag %s\n%s" x usage;
        exit 2
    | x :: rest -> extract check inject jobs (x :: acc) rest
  in
  let check, inject_seed, jobs, args = extract false None 1 [] args in
  match args with
  | "--trace" :: rest ->
      Suite.trace_smoke (match rest with out :: _ -> out | [] -> "trace.json")
  | "--json" :: rest ->
      Suite.bench_json ~check ?inject_seed ~jobs
        (match rest with out :: _ -> out | [] -> "BENCH_fixed_seed.json")
  | "--matrix" :: _ ->
      let runs, faults =
        Suite.fault_matrix ~verbose:true ?seed:inject_seed ~jobs ()
      in
      Printf.printf "fault matrix: %d runs checked, %d faults injected\n%!" runs
        faults
  | "--security" :: _ ->
      let results = Suite.security_matrix ~jobs () in
      Printf.printf "security matrix: %d cells checked on both interpreter paths\n%!"
        (List.length results)
  | "--open" :: rest ->
      let arrival =
        match rest with
        | s :: _ -> (
            match Suite.OL.arrival_of_string s with
            | Some a -> a
            | None ->
                Printf.eprintf
                  "--open takes poisson | bursty | diurnal, got %S\n" s;
                exit 2)
        | [] -> Suite.OL.Poisson
      in
      let rows = Suite.open_sweep ~jobs ~arrival () in
      Printf.printf "open sweep: %d cells\n%!" (List.length rows)
  | [] ->
      if check || inject_seed <> None then
        (* flags without a mode: run the digest suite under them *)
        Suite.bench_json ~check ?inject_seed ~jobs
          "BENCH_fixed_seed.json"
      else List.iter (fun (_, f) -> f ()) Suite.experiments
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name Suite.experiments with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %s; available: %s\n" name
                (String.concat " " (List.map fst Suite.experiments));
              exit 1)
        names
