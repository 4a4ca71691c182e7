(** Binary min-heap keyed by (time, insertion order).

    Events scheduled for the same instant pop in insertion order, which
    keeps the discrete-event engine deterministic.  An index heap:
    sifting moves unboxed times, sequence numbers and slot ids, and each
    payload is written once into a recycled slot. *)

type 'a t

(** An empty heap. *)
val create : unit -> 'a t

(** Number of queued entries. *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** Queue [payload] at [time]. *)
val push : 'a t -> time:float -> 'a -> unit

(** Remove and return the earliest entry, if any. *)
val pop : 'a t -> (float * 'a) option

(** Time of the earliest entry without removing it. *)
val peek_time : 'a t -> float option

(** Time of the earliest entry; raises [Invalid_argument] when empty.
    Not allocation-free for callers in other modules: a float returned
    across a module boundary is boxed unless the call is inlined, and
    the default dev profile compiles with [-opaque], which rules that
    out.  Hot loops use {!peek_into}. *)
val top_time : 'a t -> float

(** [peek_into h cell] stores the time of the earliest entry in
    [cell.(0)] and returns [true], or returns [false] (leaving [cell]
    untouched) when [h] is empty.  Allocation-free counterpart of
    {!peek_time} for the event loop: the time travels through the
    caller's unboxed cell, never as a boxed return value. *)
val peek_into : 'a t -> floatarray -> bool

(** The earliest payload, without removing it; raises [Invalid_argument]
    when empty. *)
val top : 'a t -> 'a

(** Remove and return the earliest payload; raises [Invalid_argument]
    when empty.  Allocation-free counterpart of {!pop}; the vacated slot
    is cleared so the heap retains no popped payload. *)
val pop_min : 'a t -> 'a
