(* Simulated physical memory.

   Three stores share one address space:
   - [words]: 8-byte data words at 8-aligned addresses (sparse);
   - [caps]: 32-byte capability cells at 32-aligned addresses, kept apart
     from data so capabilities cannot be forged by writing their bits —
     the page's capability-storage bit mediates which accessor is legal;
   - [code]: one instruction per 4-byte slot.

   Representation: page-granular chunked arrays.  Each store maps a page
   number to a flat array covering that page, allocated on first store;
   within a page an access is a direct array index.  In front of each
   store's page Hashtbl sits a direct-mapped page cache
   ({!Layout.cache_way}), so the handful of pages a warm call alternates
   between (code, stack, thread struct, kernel call stack) each keep
   their own way instead of evicting one another.  A page with no chunk
   is cached too, as the store's shared [absent] chunk: an all-neutral
   array (0 / None) that reads return from directly and that is never
   written — a store that finds it allocates the page's real chunk and
   overwrites the way, so a first store to a page is immediately visible
   to subsequent loads.

   [code_gen] counts [place_code] calls: it versions the code store so
   the machine's superblock cache can tell whether any code it
   decoded earlier might have been overwritten (self-modifying code,
   loaders reusing addresses).

   All protection checks happen in [Machine]; this module is the raw
   backing store. *)

let page_mask = Layout.page_size - 1

type 'a store = {
  chunks : (int, 'a array) Hashtbl.t;
  absent : 'a array;
  way_page : int array; (* page cached in each way; -1 = none *)
  way_chunk : 'a array array;
}

type t = {
  words : int store;
  caps : Capability.t option store;
  code : Isa.instr option store;
  mutable code_count : int; (* placed instruction slots *)
  mutable code_gen : int; (* bumped by every [place_code] *)
}

(* [Layout.page_of] is a logical shift, so page numbers are never
   negative: -1 is a safe "no page cached" sentinel. *)
let new_store ~slot_bytes fill =
  let absent = Array.make (Layout.page_size / slot_bytes) fill in
  {
    chunks = Hashtbl.create 64;
    absent;
    way_page = Array.make Layout.cache_ways (-1);
    way_chunk = Array.make Layout.cache_ways absent;
  }

let create () =
  {
    words = new_store ~slot_bytes:Layout.word_size 0;
    caps = new_store ~slot_bytes:Layout.cap_bytes None;
    code = new_store ~slot_bytes:Isa.instr_bytes None;
    code_count = 0;
    code_gen = 0;
  }

(* The chunk covering [page], or [s.absent] when the page has none. *)
let read_chunk s page =
  let w = Layout.cache_way page in
  if Array.unsafe_get s.way_page w = page then Array.unsafe_get s.way_chunk w
  else begin
    let c = match Hashtbl.find s.chunks page with c -> c | exception Not_found -> s.absent in
    s.way_page.(w) <- page;
    s.way_chunk.(w) <- c;
    c
  end

(* The chunk covering [page], allocated on first use. *)
let write_chunk s page =
  let c = read_chunk s page in
  if c != s.absent then c
  else begin
    let c = Array.make (Array.length s.absent) s.absent.(0) in
    Hashtbl.add s.chunks page c;
    s.way_chunk.(Layout.cache_way page) <- c;
    c
  end

let check_word_aligned addr =
  if addr land 7 <> 0 then invalid_arg (Printf.sprintf "unaligned word access 0x%x" addr)

let load_word t addr =
  check_word_aligned addr;
  (read_chunk t.words (Layout.page_of addr)).((addr land page_mask) lsr 3)

let store_word t addr v =
  check_word_aligned addr;
  (write_chunk t.words (Layout.page_of addr)).((addr land page_mask) lsr 3) <- v

let check_cap_aligned addr =
  if addr land (Layout.cap_bytes - 1) <> 0 then
    invalid_arg (Printf.sprintf "unaligned capability access 0x%x" addr)

let load_cap t addr =
  check_cap_aligned addr;
  (read_chunk t.caps (Layout.page_of addr)).((addr land page_mask) lsr 5)

let store_cap t addr cap =
  check_cap_aligned addr;
  (write_chunk t.caps (Layout.page_of addr)).((addr land page_mask) lsr 5) <- Some cap

(* Misaligned fetch addresses never hold an instruction (code is placed
   at 4-aligned slots only), matching the old per-address table. *)
let fetch t addr =
  if addr land (Isa.instr_bytes - 1) <> 0 then None
  else (read_chunk t.code (Layout.page_of addr)).((addr land page_mask) lsr 2)

(* Place a straight-line instruction sequence at [addr]; returns the first
   address past it. *)
let place_code t ~addr instrs =
  if addr land (Isa.instr_bytes - 1) <> 0 then
    invalid_arg "place_code: misaligned code address";
  t.code_gen <- t.code_gen + 1;
  List.iteri
    (fun i instr ->
      let a = addr + (i * Isa.instr_bytes) in
      let c = write_chunk t.code (Layout.page_of a) in
      let slot = (a land page_mask) lsr 2 in
      if c.(slot) = None then t.code_count <- t.code_count + 1;
      c.(slot) <- Some instr)
    instrs;
  addr + (List.length instrs * Isa.instr_bytes)

let code_size t = t.code_count

let code_generation t = t.code_gen
