(* Address-space layout constants shared by the whole machine model. *)

let page_size = 4096

let page_shift = 12

let word_size = 8

(* "Any code address used with [Call] permission is an entry point if it is
   aligned to a system-configurable value" (Sec. 4.1). *)
let entry_align = 64

(* Capabilities occupy 32 B in memory (Sec. 4.2). *)
let cap_bytes = 32

let page_of addr = addr lsr page_shift

let page_base addr = addr land lnot (page_size - 1)

let offset_in_page addr = addr land (page_size - 1)

let align_up addr align = (addr + align - 1) land lnot (align - 1)

let is_aligned addr align = addr land (align - 1) = 0

(* Direct-mapped page caches (the machine's translation cache and the
   memory's chunk caches) pick their way by Fibonacci hashing: the top
   bits of the page number times the 64-bit golden-ratio constant
   2^64/phi (0x9E3779B97F4A7C15) truncated to OCaml's 63-bit int, so
   [cache_way] assumes [Sys.int_size = 63].  Workloads place code, data,
   stack and kernel regions at round power-of-two addresses, so any
   index built from a few fixed bit ranges of the page number maps
   whole regions onto the same ways, and the warm call path (stack,
   thread struct, kernel call stack, code of both domains) thrashes. *)
let cache_way_bits = 6

let cache_ways = 1 lsl cache_way_bits

let cache_way page = (page * 0x1E3779B97F4A7C15) lsr (Sys.int_size - cache_way_bits)
