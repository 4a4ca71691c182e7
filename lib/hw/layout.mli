(** Address-space layout constants shared by the whole machine model. *)

val page_size : int

val page_shift : int

val word_size : int

(** Entry-point alignment for call-permission transfers (Sec. 4.1). *)
val entry_align : int

(** In-memory size of a capability (Sec. 4.2). *)
val cap_bytes : int

val page_of : int -> int

val page_base : int -> int

val offset_in_page : int -> int

val align_up : int -> int -> int

val is_aligned : int -> int -> bool

(** Number of ways of the direct-mapped page caches (a power of two). *)
val cache_ways : int

(** Way of a page number in a direct-mapped page cache. *)
val cache_way : int -> int
