(* Discrete-event simulation engine.

   Simulated threads are ordinary OCaml functions that perform effects to
   interact with virtual time.  An effect handler per thread turns blocking
   operations into heap-scheduled continuations, which keeps workload code
   in direct style (the whole point of using OCaml 5 here: kernel and IPC
   protocol code below reads like the real thing).

   One-shot continuations: every suspended thread is resumed exactly once,
   either by the timer heap ([delay]) or by whoever holds its waker
   ([suspend]/[resume]).  The handlers themselves resume the next due
   thread, in tail position (DESIGN.md Sec. 7, "Event dispatch"). *)

open Effect.Deep

(* A queued event.  Raw thunks ([schedule], [spawn]) run from the run
   loop; thread resumptions may also be fired from inside a handler
   (see [dispatch]). *)
type event =
  | Thunk of (unit -> unit)
  (* A thread's timer wakeup.  One per thread, allocated at its first
     slow-path [delay] and reused for every later one: a thread sits in
     the heap at most once, so the block is free whenever it delays. *)
  | Timer of { mutable k : (unit, unit) continuation }
  (* A suspended thread resumed with a value by its waker. *)
  | Wake : ('a, unit) continuation * 'a -> event

type t = {
  (* Current virtual time, in a 1-slot [floatarray]: a [mutable float]
     field in this mixed record would box a fresh float on every store,
     and the fast delay path and the run loop each store it once per
     event — millions of allocations per simulated second. *)
  now_ : floatarray;
  (* Time of the earliest queued event, filled by [Heap.peek_into]: read
     through this cell, the time crosses no module boundary boxed. *)
  due : floatarray;
  (* Wake-up time of the thread performing [Sleep], written just before
     the perform: the effect carries no payload, so performing it
     allocates nothing beyond the continuation. *)
  wake : floatarray;
  events : event Heap.t;
  mutable live : int; (* threads spawned and not yet finished *)
  mutable steps : int;
  mutable step_limit : int;
  mutable tracer : Trace.t;
  (* Deadline of the innermost [run_until], infinity outside one: neither
     the [delay_in] fast path nor handler-side dispatch may carry a
     thread past it. *)
  mutable horizon : float;
}

type 'a waker = { mutable fired : bool; engine : t; k : ('a, unit) continuation }

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Sleep : unit Effect.t (* until [wake.(0)] *)
  | Suspend : ('a waker -> unit) -> 'a Effect.t
  | Now : float Effect.t

exception Step_limit_exceeded

let create () =
  {
    now_ = Float.Array.make 1 0.;
    due = Float.Array.make 1 0.;
    wake = Float.Array.make 1 0.;
    events = Heap.create ();
    live = 0;
    steps = 0;
    step_limit = max_int;
    tracer = Trace.null;
    horizon = infinity;
  }

let set_step_limit t limit = t.step_limit <- limit

let set_trace t tracer = t.tracer <- tracer

let tracer t = t.tracer

let now t = Float.Array.unsafe_get t.now_ 0

let set_now t v = Float.Array.unsafe_set t.now_ 0 v

let push t ~at ev =
  let now = Float.Array.unsafe_get t.now_ 0 in
  let at = if at < now then now else at in
  if Trace.enabled t.tracer then Trace.emit_bare t.tracer ~ts:at Trace.Sched;
  Heap.push t.events ~time:at ev

let schedule t ~at f = push t ~at (Thunk f)

(* Fire [ev], just popped from the heap at time [t.due.(0)]: count the
   step, raise if it exceeds the limit, advance the clock, run it. *)
let fire t ev =
  t.steps <- t.steps + 1;
  if t.steps > t.step_limit then raise Step_limit_exceeded;
  Float.Array.unsafe_set t.now_ 0 (Float.Array.unsafe_get t.due 0);
  match ev with
  | Thunk f -> f ()
  | Timer r -> continue r.k ()
  | Wake (k, v) -> continue k v

(* Handler-side dispatch.  A Delay or Suspend handler has just queued or
   parked its own thread; instead of returning to the run loop, which
   would pop the next event and resume it, it does so itself, calling
   [continue] in tail position.  The handler runs on the stack of
   whoever resumed its thread (the loop), and a tail call replaces its
   frame, so the host stack stays flat however long the chain of inline
   resumptions — and a resume from the handler is markedly cheaper than
   returning up to the loop first.

   It fires exactly the event the loop would fire next, under the loop's
   guards; when one fails it returns, and the loop pops the same event
   (or raises, or stops at the horizon) exactly as before:
   - a raw thunk goes back to the loop.  A thunk is arbitrary code, and
     one that started a thread other than as its last action would keep
     its frame under that thread's handler, and so under every inline
     resumption after it.  With thunks on the loop, the only code a
     handler runs is a tail-position [continue], and the stack bound
     does not depend on what any thunk does;
   - at the step limit the loop raises [Step_limit_exceeded] itself, so
     the exception never comes from a handler;
   - an event past the [run_until] horizon stays queued. *)
let dispatch t =
  if
    t.steps < t.step_limit
    && Heap.peek_into t.events t.due
    && not (Float.Array.unsafe_get t.due 0 > t.horizon)
  then
    match Heap.top t.events with
    | Thunk _ -> ()
    | Timer _ | Wake _ -> fire t (Heap.pop_min t.events)

(* Run [f] as a simulated thread under the effect handler.  The timer
   handler is built once per thread, not per event: it reads the wake-up
   time from [t.wake] instead of capturing it. *)
let exec t f =
  let timer = ref None in
  let sleep =
    Some
      (fun (k : (unit, unit) continuation) ->
        let ev =
          match !timer with
          | Some (Timer r as ev) ->
              r.k <- k;
              ev
          | _ ->
              let ev = Timer { k } in
              timer := Some ev;
              ev
        in
        push t ~at:(Float.Array.unsafe_get t.wake 0) ev;
        dispatch t)
  in
  match_with f ()
    {
      retc = (fun () -> t.live <- t.live - 1);
      exnc =
        (fun exn ->
          t.live <- t.live - 1;
          raise exn);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) continuation -> unit) option ->
          match eff with
          | Sleep -> sleep
          | Delay d ->
              Float.Array.unsafe_set t.wake 0 (now t +. d);
              sleep
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  if Trace.enabled t.tracer then
                    Trace.emit_bare t.tracer ~ts:(now t) Trace.Suspend;
                  register { fired = false; engine = t; k };
                  dispatch t)
          | Now -> Some (fun (k : (a, unit) continuation) -> continue k (now t))
          | _ -> None);
    }

let spawn ?at t f =
  t.live <- t.live + 1;
  let at = match at with None -> now t | Some at -> at in
  if Trace.enabled t.tracer then Trace.emit_bare t.tracer ~ts:at Trace.Spawn;
  schedule t ~at (fun () -> exec t f)

(* --- operations available inside simulated threads --- *)

let delay d = if d > 0. then Effect.perform (Delay d) else ()

(* [delay_in t d] = [delay d] for a thread running inside engine [t],
   with a fast path that skips the effect round trip and the heap.

   The slow path is: perform Sleep -> the handler queues the thread's
   timer at [at = now + d], emitting a Sched event -> the next pop of the
   heap minimum (by a handler or the run loop) bumps [steps], sets [now]
   and resumes.  When our event would be the strict minimum (heap empty
   or top strictly later — a tie loses to the earlier sequence number),
   nothing can run between push and pop, so emitting the same Sched
   event, bumping [steps] and advancing [now] in place is observably
   identical: same trace stream byte for byte, same heap pop order for
   every other event (eliding a push/pop pair preserves the relative
   insertion order of the rest).
   The guards delegate to the real path whenever popping would cross a
   [run_until] horizon (the event must stay queued) or trip the step
   limit (the raise must come from the run loop, not from inside the
   thread).  The slow path hands [at] to the handler through [t.wake]. *)
let delay_in t d =
  if d > 0. then begin
    let at = Float.Array.unsafe_get t.now_ 0 +. d in
    if
      at <= t.horizon
      && t.steps < t.step_limit
      && ((not (Heap.peek_into t.events t.due)) || Float.Array.unsafe_get t.due 0 > at)
    then begin
      if Trace.enabled t.tracer then Trace.emit_bare t.tracer ~ts:at Trace.Sched;
      t.steps <- t.steps + 1;
      Float.Array.unsafe_set t.now_ 0 at
    end
    else begin
      Float.Array.unsafe_set t.wake 0 at;
      Effect.perform Sleep
    end
  end

let current_time () = Effect.perform Now

(* Suspend the calling thread; [register] receives a waker that must be
   fired exactly once (firing twice raises). *)
let suspend register = Effect.perform (Suspend register)

let resume waker v =
  if waker.fired then invalid_arg "Engine.resume: waker fired twice";
  waker.fired <- true;
  let t = waker.engine in
  if Trace.enabled t.tracer then Trace.emit_bare t.tracer ~ts:(now t) Trace.Resume;
  push t ~at:(now t) (Wake (waker.k, v))

(* --- driving the simulation --- *)

(* The loop body allocates nothing: [peek_into] hands over the time
   through [t.due], [pop_min] returns the bare event. *)
let run t =
  while Heap.peek_into t.events t.due do
    fire t (Heap.pop_min t.events)
  done

(* Run until virtual time [deadline]; events after it stay queued. *)
let run_until t deadline =
  t.horizon <- deadline;
  Fun.protect ~finally:(fun () -> t.horizon <- infinity) @@ fun () ->
  let running = ref true in
  while !running do
    if not (Heap.peek_into t.events t.due) then running := false
    else if Float.Array.unsafe_get t.due 0 > deadline then begin
      set_now t deadline;
      running := false
    end
    else fire t (Heap.pop_min t.events)
  done

let pending t = Heap.length t.events

let steps t = t.steps
