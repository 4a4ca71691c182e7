(* Binary min-heap keyed by (time, sequence number).

   The sequence number breaks ties so that events scheduled for the same
   instant fire in insertion order, which keeps the discrete-event engine
   deterministic.

   Representation: an index heap.  The heap order lives in three
   parallel unboxed arrays indexed by heap position — [times] (a flat
   float array), [seqs] and [slots] — and each payload sits in a slot
   table, [payloads], at the slot id its entry carries.  A payload is
   written once, when it is pushed, and cleared once, when it is popped;
   sifting moves only floats and ints, so no sift level goes through the
   GC write barrier however deep the heap is.

   Free slots are kept in [slots] itself: positions [size .. capacity-1]
   hold the ids of the free slots, so [slots] is always a permutation of
   [0 .. capacity-1].  A push takes the slot id parked at position
   [size]; a pop parks the root's slot id at the position the heap
   vacates.  Slot recycling needs no other structure.

   Both sift loops percolate a hole instead of swapping: the moving
   entry is held in locals and written once at its final position.  The
   loops keep the arrays in locals and inline the comparisons — without
   flambda a per-level helper call would cost more than the sift itself.

   Payloads are stored as [Obj.t] behind the typed ['a t] interface so a
   vacated slot can be cleared with a type-neutral sentinel: a popped
   payload (an engine continuation, i.e. a whole captured stack) must not
   stay reachable from the heap until the slot happens to be reused. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : Obj.t array;
  mutable size : int;
  mutable next_seq : int;
}

(* Sentinel for empty payload slots.  An immediate value: holds nothing
   alive, and [Array.make] with it builds a uniform (non-float) array. *)
let nil : Obj.t = Obj.repr 0

let create () =
  { times = [||]; seqs = [||]; slots = [||]; payloads = [||]; size = 0; next_seq = 0 }

let length h = h.size

let is_empty h = h.size = 0

(* Grow by doubling when full.  A full heap names every old slot id at
   its positions [0 .. cap-1]; the new positions [cap .. ncap-1] park the
   new, free slot ids [cap .. ncap-1]. *)
let ensure_capacity h =
  let cap = Array.length h.seqs in
  if h.size = cap then begin
    let ncap = if cap = 0 then 16 else 2 * cap in
    let times = Array.make ncap 0. in
    let seqs = Array.make ncap 0 in
    let slots = Array.init ncap Fun.id in
    let payloads = Array.make ncap nil in
    Array.blit h.times 0 times 0 cap;
    Array.blit h.seqs 0 seqs 0 cap;
    Array.blit h.slots 0 slots 0 cap;
    Array.blit h.payloads 0 payloads 0 cap;
    h.times <- times;
    h.seqs <- seqs;
    h.slots <- slots;
    h.payloads <- payloads
  end

(* Every index in the sift loops is bounded by [size] (itself at most
   the arrays' length, maintained by [ensure_capacity]), and every slot
   id is below the arrays' length, so the accesses skip bounds checks. *)
let push h ~time payload =
  ensure_capacity h;
  let times = h.times and seqs = h.seqs and slots = h.slots in
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  let slot = Array.unsafe_get slots h.size in
  Array.unsafe_set h.payloads slot (Obj.repr payload);
  (* Percolate the hole up from the new position: parents later than the
     new entry move down one level; the new entry is stored once. *)
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let c = !i in
    let p = (c - 1) / 2 in
    let pt = Array.unsafe_get times p in
    if time < pt || (time = pt && seq < Array.unsafe_get seqs p) then begin
      Array.unsafe_set times c pt;
      Array.unsafe_set seqs c (Array.unsafe_get seqs p);
      Array.unsafe_set slots c (Array.unsafe_get slots p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

(* Remove the root and return its payload: clear the root's slot and
   park its id at the vacated last position, then percolate the hole at
   the root down, moving the earlier child up each level, until the
   displaced last entry fits. *)
let remove_top h =
  let size = h.size - 1 in
  h.size <- size;
  let times = h.times and seqs = h.seqs and slots = h.slots in
  let root = Array.unsafe_get slots 0 in
  let payload = Array.unsafe_get h.payloads root in
  Array.unsafe_set h.payloads root nil;
  let ltime = Array.unsafe_get times size
  and lseq = Array.unsafe_get seqs size
  and lslot = Array.unsafe_get slots size in
  Array.unsafe_set slots size root;
  if size > 0 then begin
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let c = !i in
      let l = (2 * c) + 1 in
      if l >= size then continue := false
      else begin
        (* Pick the earlier of the two children. *)
        let r = l + 1 in
        let lt = Array.unsafe_get times l in
        let m, mt =
          if
            r < size
            && (let rt = Array.unsafe_get times r in
                rt < lt
                || (rt = lt && Array.unsafe_get seqs r < Array.unsafe_get seqs l))
          then (r, Array.unsafe_get times r)
          else (l, lt)
        in
        if mt < ltime || (mt = ltime && Array.unsafe_get seqs m < lseq) then begin
          Array.unsafe_set times c mt;
          Array.unsafe_set seqs c (Array.unsafe_get seqs m);
          Array.unsafe_set slots c (Array.unsafe_get slots m);
          i := m
        end
        else continue := false
      end
    done;
    Array.unsafe_set times !i ltime;
    Array.unsafe_set seqs !i lseq;
    Array.unsafe_set slots !i lslot
  end;
  payload

let pop h =
  if h.size = 0 then None
  else begin
    let time = h.times.(0) in
    let payload : 'a = Obj.obj (remove_top h) in
    Some (time, payload)
  end

let top_time h =
  if h.size = 0 then invalid_arg "Heap.top_time: empty heap";
  h.times.(0)

let peek_into h cell =
  if h.size = 0 then false
  else begin
    Float.Array.unsafe_set cell 0 (Array.unsafe_get h.times 0);
    true
  end

let top h =
  if h.size = 0 then invalid_arg "Heap.top: empty heap";
  (Obj.obj (Array.unsafe_get h.payloads (Array.unsafe_get h.slots 0)) : 'a)

let pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  (Obj.obj (remove_top h) : 'a)

let peek_time h = if h.size = 0 then None else Some h.times.(0)
