(** Per-thread Domain Capability Stack (Sec. 4.2): capability spill
    storage bounded by registers only privileged code may move.  dIPC's
    proxies implement DCS integrity (raise the base) and confidentiality
    (switch to a fresh stack) on it (Sec. 5.2.3). *)

val default_capacity : int

type t

val create : ?capacity:int -> unit -> t

(** Number of entries on the active stack (the [DcsGetTop] value). *)
val depth : t -> int

(** Lowest index unprivileged code may pop past (the [DcsGetBase] value). *)
val base : t -> int

(** Number of stacks detached by {!switch} and not yet restored. *)
val saved_depth : t -> int

(** Unprivileged push/pop; fault on overflow or popping below base. *)
val push : t -> pc:int -> Capability.t -> unit

val pop : t -> pc:int -> Capability.t

(** Privileged: DCS integrity. *)
val set_base : t -> pc:int -> int -> unit

(** Privileged: detach the active stack and install a fresh one holding
    only the top [args] entries (DCS confidentiality + integrity).
    Costs O([args]). *)
val switch : t -> pc:int -> args:int -> unit

(** Privileged: re-install the most recently detached stack, copying the
    top [rets] entries of the current stack back as results; faults when
    nothing is detached.  A restore whose results would overflow the
    caller stack faults without changing anything.  Costs O(entries on
    the current stack). *)
val restore : t -> pc:int -> rets:int -> unit

(** Kernel: re-install the stack that was active at nesting [level]
    (0 = the thread's own stack) and forget every stack detached above
    it.  No-op when [level >= saved_depth t]. *)
val unwind_to : t -> level:int -> unit

(** Kernel: unwind the callee whose switch made nesting [level] (>= 1)
    after a fault: forget the stacks detached above it (detaching the
    caller's stack first if the switch never ran), so that the next
    {!restore} re-installs the caller's stack and returns no results. *)
val abandon : t -> level:int -> unit

(** Kernel: make [into] an independent copy of [src] (active stack with
    [f] applied to each entry, bounds, detached stacks); the two share
    no storage afterwards. *)
val clone_into : f:(Capability.t -> Capability.t) -> t -> into:t -> unit
