(** Per-hardware-thread software-managed APL cache (Secs. 4.1, 4.3):
    maps recently executed domain tags to small hardware domain tags
    (5 bits for the 32-entry cache), which index the per-thread
    process-tracking array (Sec. 6.1.2). *)

val capacity : int

type t

val create : unit -> t

val reset : t -> unit

(** The hit path: hardware tag of [tag] if resident, else -1 (counts a
    hit or miss).  Neither hashes nor allocates. *)
val lookup : t -> int -> int

(** Install [tag], evicting the least recently used entry; returns the
    hardware tag it landed on. *)
val install : t -> int -> int

(** {!lookup}, then {!install} on a miss: the hardware tag of [tag]
    either way. *)
val find_or_install : t -> int -> int

(** (hits, misses, refills). *)
val stats : t -> int * int * int

val resident_tags : t -> int list
