(* Per-thread Domain Capability Stack (Sec. 4.2).

   All capabilities can be spilled to the DCS, which is bounded by two
   registers modifiable only by privileged code; unprivileged code moves
   capabilities with push/pop.  dIPC's proxies implement:

   - DCS integrity: raise the base so the callee cannot pop the caller's
     non-argument entries, restore it on return (Sec. 5.2.3).
   - DCS confidentiality (+integrity): switch to a separate stack per
     domain, copying argument entries per the signature.

   Switch and restore cost O(entries moved), not O(capacity).  The
   detached caller stacks live in [frames], one reusable record per
   nesting level, and every level keeps the callee stack it last used
   as a [spare]: restore clears the callee stack's live prefix (every
   slot at or above [top] is already [None] — pop clears what it
   removes) and parks it there, and the next switch at that level
   takes it instead of allocating.  So a switched-to stack is
   indistinguishable from a freshly allocated one: it holds the copied
   arguments and nothing else.

   Safety rests on one invariant: the active stack, the caller stacks
   of the live frames and the spares are pairwise distinct arrays, and
   no other [t] ever holds any of them ({!clone_into} copies).  A switch
   takes its spare out of the frame before using it, and a restore pops
   the frame (dropping its reference to the caller stack) before it
   parks the callee stack, so no array is ever both in use and
   spare.  The kernel's {!unwind_to} never parks: the stacks it skips
   are dropped. *)

let default_capacity = 256

type frame = {
  mutable f_slots : Capability.t option array; (* detached caller stack *)
  mutable f_base : int;
  mutable f_top : int;
  mutable f_spare : Capability.t option array; (* cleared callee stack, or [||] *)
  mutable f_abandoned : bool; (* the next restore returns no results *)
}

type t = {
  mutable slots : Capability.t option array;
  mutable base : int; (* lowest index unprivileged code may pop past *)
  mutable top : int; (* next free slot *)
  mutable frames : frame array;
  mutable saved : int; (* live frames: frames.(0 .. saved - 1) *)
}

let create ?(capacity = default_capacity) () =
  { slots = Array.make capacity None; base = 0; top = 0; frames = [||]; saved = 0 }

let depth t = t.top

let base t = t.base

let saved_depth t = t.saved

let push t ~pc cap =
  if t.top >= Array.length t.slots then
    Fault.raise_fault ~pc (Fault.Dcs_bounds "overflow");
  t.slots.(t.top) <- Some cap;
  t.top <- t.top + 1

let pop t ~pc =
  if t.top <= t.base then
    Fault.raise_fault ~pc (Fault.Dcs_bounds "pop below base");
  t.top <- t.top - 1;
  match t.slots.(t.top) with
  | Some cap ->
      t.slots.(t.top) <- None;
      cap
  | None -> Fault.raise_fault ~pc (Fault.Dcs_bounds "empty slot")

(* Privileged: used by proxies for DCS integrity. *)
let set_base t ~pc idx =
  if idx < 0 || idx > t.top then
    Fault.raise_fault ~pc (Fault.Dcs_bounds "base out of range");
  t.base <- idx

let new_frame () =
  { f_slots = [||]; f_base = 0; f_top = 0; f_spare = [||]; f_abandoned = false }

(* Privileged: detach the current stack and install a fresh one with the
   top [args] entries copied over (DCS confidentiality + integrity). *)
let switch t ~pc ~args =
  if args > t.top - t.base then
    Fault.raise_fault ~pc (Fault.Dcs_bounds "more arguments than entries");
  let k = t.saved in
  if k = Array.length t.frames then
    t.frames <- Array.init (max 4 (2 * k)) (fun i -> if i < k then t.frames.(i) else new_frame ());
  let f = t.frames.(k) in
  let fresh =
    if Array.length f.f_spare = 0 then Array.make (Array.length t.slots) None else f.f_spare
  in
  f.f_spare <- [||];
  f.f_abandoned <- false;
  f.f_slots <- t.slots;
  f.f_base <- t.base;
  f.f_top <- t.top;
  for i = 0 to args - 1 do
    fresh.(i) <- t.slots.(t.top - args + i)
  done;
  t.slots <- fresh;
  t.base <- 0;
  t.top <- args;
  t.saved <- k + 1

(* Privileged: restore the most recently detached stack, copying the top
   [rets] entries of the callee stack back as results.  All or nothing:
   a restore that would overflow the caller stack faults before changing
   anything, so the frame and the callee stack stay as they were and a
   retried restore faults the same way instead of popping an outer
   frame.  The restore of an {!abandon}ed level returns no results. *)
let restore t ~pc ~rets =
  if t.saved = 0 then Fault.raise_fault ~pc (Fault.Dcs_bounds "no saved DCS to restore");
  let k = t.saved - 1 in
  let f = t.frames.(k) in
  let rets = if f.f_abandoned then 0 else rets in
  if rets > t.top then Fault.raise_fault ~pc (Fault.Dcs_bounds "more results than entries");
  let callee = t.slots and callee_top = t.top in
  let results = ref 0 in
  for i = callee_top - rets to callee_top - 1 do
    if Option.is_some callee.(i) then incr results
  done;
  if f.f_top + !results > Array.length f.f_slots then
    Fault.raise_fault ~pc (Fault.Dcs_bounds "overflow on restore");
  t.slots <- f.f_slots;
  t.base <- f.f_base;
  t.top <- f.f_top;
  f.f_slots <- [||];
  t.saved <- k;
  for i = callee_top - rets to callee_top - 1 do
    match callee.(i) with
    | Some _ as entry ->
        t.slots.(t.top) <- entry;
        t.top <- t.top + 1
    | None -> ()
  done;
  Array.fill callee 0 callee_top None;
  f.f_spare <- callee

(* Kernel: re-install the stack that was active at nesting [level] (the
   one the [level + 1]-th outstanding switch detached) and forget every
   stack detached above it; no-op when [level >= saved_depth].  Used
   when unwinding skips activations: their stacks become unreachable,
   and the active stack is the one its owner last had. *)
let unwind_to t ~level =
  if level < 0 then invalid_arg "Dcs.unwind_to: negative level";
  if level < t.saved then begin
    let f = t.frames.(level) in
    t.slots <- f.f_slots;
    t.base <- f.f_base;
    t.top <- f.f_top;
    for i = level to t.saved - 1 do
      t.frames.(i).f_slots <- [||]
    done;
    t.saved <- level
  end

(* Kernel: the callee whose switch made nesting [level] is being unwound
   and its caller resumed at the proxy's return path.  Stacks detached
   above [level] are forgotten; if the fault came before the switch
   itself ran, the caller's stack is detached now as the switch would
   have.  The proxy's restore then re-installs the caller's stack with
   no results, so it neither faults nor pops an outer frame. *)
let abandon t ~level =
  if level < 1 || level > t.saved + 1 then invalid_arg "Dcs.abandon: level out of range";
  if level > t.saved then switch t ~pc:0 ~args:0 else unwind_to t ~level;
  t.frames.(level - 1).f_abandoned <- true

(* Kernel: make [into] a copy of [src] — active stack, bounds and
   detached stacks — with [f] applied to every active entry.  Every
   array is copied, so the two stacks share nothing. *)
let clone_into ~f src ~into =
  into.slots <- Array.map (Option.map f) src.slots;
  into.base <- src.base;
  into.top <- src.top;
  into.frames <-
    Array.init src.saved (fun i ->
        let s = src.frames.(i) in
        { s with f_slots = Array.copy s.f_slots; f_spare = [||] });
  into.saved <- src.saved
