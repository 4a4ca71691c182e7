(* Per-hardware-thread software-managed APL cache (Secs. 4.1, 4.3).

   The cache holds the access-grant information of recently executed
   domains and maps each cached domain tag to a small hardware domain tag
   (5 bits for the 32-entry cache).  dIPC's extension (Sec. 4.3) is a
   privileged instruction that retrieves the hardware tag of any cached
   domain; the hardware tag then indexes the per-thread process-tracking
   array (Sec. 6.1.2).

   The cache is software-managed: on a miss the hardware raises an
   exception and the OS refills it.  The machine model supports both a
   strict mode (fault on miss, as real hardware would) and an auto-fill
   mode that charges a refill cost, which is what the paper's evaluation
   assumes ("this event never happens on the presented benchmarks",
   Sec. 7.5).

   [lookup] is the hit path (it runs on every domain crossing and every
   GetHwTag): a first-match scan over the slot tags that returns a plain
   int, so it neither hashes nor allocates.  Installs fill empty slots
   from the bottom, so a workload's few live domains sit in the first
   slots and a hit typically stops after a handful of compares.  The
   first match is also the smallest slot holding the tag, which keeps
   the slot choice well defined if a caller installs a resident tag
   twice.  [install] is the cold path: an LRU victim scan. *)

let capacity = 32

type t = {
  tags : int array; (* index = hardware domain tag; -1 = empty *)
  last_use : int array;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable refills : int;
}

let create () =
  {
    tags = Array.make capacity (-1);
    last_use = Array.make capacity 0;
    clock = 0;
    hits = 0;
    misses = 0;
    refills = 0;
  }

let reset t =
  Array.fill t.tags 0 capacity (-1);
  Array.fill t.last_use 0 capacity 0;
  t.clock <- 0;
  (* Statistics must not bleed across scenario runs that reuse a machine. *)
  t.hits <- 0;
  t.misses <- 0;
  t.refills <- 0

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* Smallest slot holding [tag], or -1.  Negative tags never match, so
   the empty-slot sentinel cannot be looked up. *)
let rec find tags tag i =
  if i = capacity then -1
  else if Array.unsafe_get tags i = tag then i
  else find tags tag (i + 1)

(* Hardware tag of [tag] if cached, else -1. *)
let lookup t tag =
  let i = if tag < 0 then -1 else find t.tags tag 0 in
  if i >= 0 then begin
    t.hits <- t.hits + 1;
    t.last_use.(i) <- tick t
  end
  else t.misses <- t.misses + 1;
  i

(* Install [tag], evicting the least-recently-used entry (the first
   empty slot if any); returns the hardware tag it landed on. *)
let install t tag =
  let victim = ref 0 in
  for i = 0 to capacity - 1 do
    let v = !victim in
    if t.tags.(i) = -1 && t.tags.(v) <> -1 then victim := i
    else if t.tags.(i) <> -1 && t.tags.(v) <> -1 && t.last_use.(i) < t.last_use.(v)
    then victim := i
  done;
  t.tags.(!victim) <- tag;
  t.last_use.(!victim) <- tick t;
  t.refills <- t.refills + 1;
  !victim

(* Hardware tag of [tag], installed on a miss: {!lookup} then {!install},
   for callers that do not need to know whether it hit. *)
let find_or_install t tag =
  let hw = lookup t tag in
  if hw >= 0 then hw else install t tag

let stats t = (t.hits, t.misses, t.refills)

let resident_tags t = Array.to_list t.tags |> List.filter (fun tag -> tag >= 0)
