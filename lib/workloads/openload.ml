(* Open / partly-open arrival workload generator (ROADMAP item 1).

   The Figure-8 reproduction is a *closed* queueing network: a handful
   of client fibers that immediately re-submit, so offered load is
   capped by the client count and tail latency never sees a queue grow.
   Production traffic is the opposite shape — an open stream of sessions
   arriving whether or not the system keeps up — and is judged on tail
   percentiles.

   Scaling to millions of users rules out one effect-fiber per client:
   sessions here are lightweight records (arrival time, remaining
   requests) flowing through a c-server FIFO queue, so a run costs a few
   heap operations and RNG draws per request and a million sessions
   simulate in well under a second.  The service station models the
   machine: [servers] simulated CPUs, each request holding one CPU for
   an exponentially distributed service demand whose mean is the
   *measured* cost of one IPC round trip of the primitive under test
   (the caller supplies it — microbench means for sem/pipe/l4/rpc, the
   machine-model call cost for dIPC).  Latency per request is the
   sojourn time (queue wait + service).

   Everything is deterministic in [seed]: each stochastic component
   (arrivals, service demands, session lengths, think times) draws from
   its own splitmix64 stream forked off the seed in a fixed order, and
   bounded integer draws use the rejection-sampled [Rng.int_unbiased]
   (modulo-bias-free; the legacy biased [Rng.int] is frozen for the
   pinned golden digests).  Runs never share mutable state, so sweeps
   shard across domains with byte-identical digests at any --jobs. *)

module Rng = Dipc_sim.Rng
module Heap = Dipc_sim.Heap
module Histogram = Dipc_sim.Histogram

type arrival = Poisson | Bursty | Diurnal

let arrival_name = function
  | Poisson -> "poisson"
  | Bursty -> "bursty"
  | Diurnal -> "diurnal"

let arrival_of_string = function
  | "poisson" -> Some Poisson
  | "bursty" -> Some Bursty
  | "diurnal" -> Some Diurnal
  | _ -> None

type params = {
  seed : int;
  sessions : int;  (* client sessions admitted over the run *)
  servers : int;  (* simulated CPUs serving requests *)
  service_ns : float;  (* mean service demand per request *)
  offered_load : float;  (* rho = request rate * service_ns / servers *)
  arrival : arrival;
  max_extra_reqs : int;
      (* partly-open sessions: each issues 1 + uniform[0, max_extra_reqs]
         requests, with a think pause between consecutive ones *)
  think_ns : float;  (* mean think time within a session *)
}

let default_params ?(seed = 42) ?(sessions = 30_000) ?(servers = 4)
    ?(offered_load = 0.7) ?(arrival = Poisson) ?(max_extra_reqs = 2)
    ?(think_ns = 20_000.) ~service_ns () =
  {
    seed;
    sessions;
    servers;
    service_ns;
    offered_load;
    arrival;
    max_extra_reqs;
    think_ns;
  }

(* One admitted client: the session record the ROADMAP calls for.
   [s_ready] is when its next request enters the queue. *)
type session = { s_arrival : float; mutable s_reqs_left : int }

type result = {
  r_sessions : int;
  r_requests : int;
  r_latency : Histogram.t;  (* per-request sojourn time, ns *)
  r_makespan_ns : float;  (* completion time of the last request *)
  r_busy_ns : float;  (* total CPU-busy time across servers *)
  r_digest : string;
}

let utilization r ~servers =
  if r.r_makespan_ns <= 0. then 0.
  else r.r_busy_ns /. (float_of_int servers *. r.r_makespan_ns)

(* Achieved throughput in requests per simulated second. *)
let throughput_rps r =
  if r.r_makespan_ns <= 0. then 0.
  else float_of_int r.r_requests /. r.r_makespan_ns *. 1e9

(* --- arrival processes ---

   Each returns the next arrival instant after [t], drawing only from
   its own stream.  Rates are in arrivals per nanosecond. *)

(* MMPP on/off shape: bursts at 4x the base rate for a fifth of the
   time, a 0.25x trickle otherwise — the time-average rate is exactly
   the base rate (0.2 * 4 + 0.8 * 0.25 = 1).  Phase holding times are
   exponential, measured in base inter-arrival units. *)
let bursty_boost = 4.

let bursty_trickle = 0.25

let bursty_on_mean = 200. (* mean on-phase length, in 1/rate units *)

let bursty_off_mean = 800.

(* Diurnal shape: sinusoidal rate swing of +-80% around the base,
   sampled by thinning against the peak rate.  The period is set so a
   run of [sessions] arrivals spans about three day-night cycles. *)
let diurnal_amp = 0.8

let make_arrivals arrival ~rate ~sessions rng =
  match arrival with
  | Poisson ->
      let mean = 1. /. rate in
      fun t -> t +. Rng.exponential rng ~mean
  | Bursty ->
      let on = ref true in
      let phase_end = ref 0. in
      let phase_mean b = (if b then bursty_on_mean else bursty_off_mean) /. rate in
      let rec next t =
        if t >= !phase_end then begin
          (* Entering a fresh phase; the first call initialises it. *)
          if !phase_end > 0. then on := not !on;
          phase_end := t +. Rng.exponential rng ~mean:(phase_mean !on);
          next t
        end
        else begin
          let r = rate *. if !on then bursty_boost else bursty_trickle in
          let t' = t +. Rng.exponential rng ~mean:(1. /. r) in
          (* An exponential is memoryless: a draw crossing the phase
             boundary restarts from the boundary at the new rate. *)
          if t' <= !phase_end then t' else next !phase_end
        end
      in
      fun t -> next t
  | Diurnal ->
      let period = float_of_int sessions /. rate /. 3. in
      let rate_at t =
        rate *. (1. +. (diurnal_amp *. sin (2. *. Float.pi *. t /. period)))
      in
      let peak = rate *. (1. +. diurnal_amp) in
      let rec next t =
        let t' = t +. Rng.exponential rng ~mean:(1. /. peak) in
        if Rng.float rng < rate_at t' /. peak then t' else next t'
      in
      fun t -> next t

(* --- deterministic digest ---

   FNV-1a over the integer run outcome: request/session counts, the
   latency histogram's bucket digest and the makespan's IEEE-754 bits.
   Byte-identical digests mean an identical simulated timeline. *)

let fnv_offset = 0xCBF29CE484222325L

let fnv_prime = 0x100000001B3L

let digest_of ~sessions ~requests ~hist ~makespan =
  let h = ref fnv_offset in
  let fold64 v = h := Int64.mul (Int64.logxor !h v) fnv_prime in
  let fold v = fold64 (Int64.of_int v) in
  fold sessions;
  fold requests;
  fold64 (Int64.bits_of_float makespan);
  fold64 (Int64.of_string ("0x" ^ Histogram.digest_hex hist));
  Printf.sprintf "%016Lx" !h

(* --- the generator/queue loop --- *)

let run p =
  if p.sessions <= 0 then invalid_arg "Openload.run: sessions must be positive";
  if p.servers <= 0 then invalid_arg "Openload.run: servers must be positive";
  if p.offered_load <= 0. then
    invalid_arg "Openload.run: offered_load must be positive";
  let root = Rng.create ~seed:p.seed in
  (* Fixed fork order: the stream assignment is part of the digest
     contract. *)
  let rng_arrival = Rng.split root in
  let rng_service = Rng.split root in
  let rng_len = Rng.split root in
  let rng_think = Rng.split root in
  let mean_reqs = 1. +. (float_of_int p.max_extra_reqs /. 2.) in
  (* offered_load = request_rate * service / servers, and each session
     contributes [mean_reqs] requests. *)
  let request_rate = p.offered_load *. float_of_int p.servers /. p.service_ns in
  let session_rate = request_rate /. mean_reqs in
  let next_arrival =
    make_arrivals p.arrival ~rate:session_rate ~sessions:p.sessions rng_arrival
  in
  let session_len () =
    if p.max_extra_reqs = 0 then 1
    else 1 + Rng.int_unbiased rng_len (p.max_extra_reqs + 1)
  in
  let queue : session Heap.t = Heap.create () in
  let free = Array.make p.servers 0. in
  let hist = Histogram.create () in
  let requests = ref 0 in
  let busy = ref 0. in
  let makespan = ref 0. in
  let admitted = ref 0 in
  let next_arr = ref (next_arrival 0.) in
  (* Serve the earliest-ready request on the earliest-free server. *)
  let serve ready sess =
    let srv = ref 0 in
    for i = 1 to p.servers - 1 do
      if free.(i) < free.(!srv) then srv := i
    done;
    let start = if ready > free.(!srv) then ready else free.(!srv) in
    let svc = Rng.exponential rng_service ~mean:p.service_ns in
    let fin = start +. svc in
    free.(!srv) <- fin;
    busy := !busy +. svc;
    if fin > !makespan then makespan := fin;
    Histogram.add hist (fin -. ready);
    incr requests;
    sess.s_reqs_left <- sess.s_reqs_left - 1;
    if sess.s_reqs_left > 0 then
      Heap.push queue ~time:(fin +. Rng.exponential rng_think ~mean:p.think_ns)
        sess
  in
  while !admitted < p.sessions || not (Heap.is_empty queue) do
    let arr_t = if !admitted < p.sessions then !next_arr else infinity in
    match Heap.peek_time queue with
    | Some ready when ready <= arr_t ->
        let sess = Heap.pop_min queue in
        serve ready sess
    | _ ->
        (* Admit the next session; its first request is ready on
           arrival.  Draw order (length, then next arrival) is fixed. *)
        let sess = { s_arrival = arr_t; s_reqs_left = session_len () } in
        incr admitted;
        Heap.push queue ~time:sess.s_arrival sess;
        next_arr := next_arrival arr_t
  done;
  {
    r_sessions = p.sessions;
    r_requests = !requests;
    r_latency = hist;
    r_makespan_ns = !makespan;
    r_busy_ns = !busy;
    r_digest =
      digest_of ~sessions:p.sessions ~requests:!requests ~hist
        ~makespan:!makespan;
  }

(* --- saturation knee ---

   Given (offered_load, p99) pairs in ascending load order, the knee is
   the first load whose p99 blows past [factor] times the p99 at the
   lightest load — self-calibrating against the primitive's unloaded
   tail (an exponential service's p99 is ~4.6x its mean even with no
   queueing), so one threshold works for 1 us semaphores and 250 ns
   dIPC calls alike. *)

let knee_factor = 3.

let saturation_knee points =
  match points with
  | [] -> None
  | (_, base_p99) :: _ ->
      List.find_map
        (fun (load, p99) ->
          if p99 >= knee_factor *. base_p99 then Some load else None)
        points
