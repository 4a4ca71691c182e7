(* Hot-path substrate regressions: the heap, APL cache, memory and
   trace-digest representations were all rewritten for speed in the
   performance-overhaul PR, under the rule that fixed-seed replay
   digests must not move.  These tests pin each optimized structure to
   its reference semantics with property tests and targeted units, so a
   future "optimization" that bends behavior fails here rather than in
   a shifted golden digest nobody can decode. *)

module Heap = Dipc_sim.Heap
module Trace = Dipc_sim.Trace
module Breakdown = Dipc_sim.Breakdown
module Memory = Dipc_hw.Memory
module Apl_cache = Dipc_hw.Apl_cache
module Capability = Dipc_hw.Capability
module Perm = Dipc_hw.Perm
module Apl = Dipc_hw.Apl
module Dcs = Dipc_hw.Dcs
module Fault = Dipc_hw.Fault
module Layout = Dipc_hw.Layout

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* --- heap: pop order, tie-breaking, model equivalence --- *)

(* Times drawn from a small grid so equal timestamps are common — the
   FIFO tie-break is the property under test. *)
let time_gen = QCheck.map (fun n -> float_of_int n /. 4.) QCheck.(int_range 0 40)

let drain h =
  let rec go acc = match Heap.pop h with
    | None -> List.rev acc
    | Some (time, payload) -> go ((time, payload) :: acc)
  in
  go []

let heap_of items =
  let h = Heap.create () in
  List.iter (fun (time, payload) -> Heap.push h ~time payload) items;
  h

let prop_pop_sorted =
  QCheck.Test.make ~name:"heap pops sorted by time" ~count:300
    QCheck.(list_of_size Gen.(0 -- 60) time_gen)
    (fun times ->
      let popped = drain (heap_of (List.mapi (fun i t -> (t, i)) times)) in
      let rec sorted = function
        | (a, _) :: ((b, _) :: _ as rest) -> a <= b && sorted rest
        | _ -> true
      in
      List.length popped = List.length times && sorted popped)

let prop_fifo_at_equal_times =
  QCheck.Test.make ~name:"heap is FIFO among equal timestamps" ~count:300
    QCheck.(pair (int_range 0 40) (int_range 1 50))
    (fun (t, n) ->
      let time = float_of_int t in
      let popped = drain (heap_of (List.init n (fun i -> (time, i)))) in
      popped = List.init n (fun i -> (time, i)))

(* Stable sort by time alone is exactly "earliest first, insertion order
   among equals" — the heap must agree with it on any input. *)
let prop_matches_stable_sort =
  QCheck.Test.make ~name:"heap drain equals stable sort" ~count:300
    QCheck.(list_of_size Gen.(0 -- 80) time_gen)
    (fun times ->
      let items = List.mapi (fun i t -> (t, i)) times in
      let expected =
        List.stable_sort (fun (a, _) (b, _) -> compare (a : float) b) items
      in
      drain (heap_of items) = expected)

(* Interleaved pushes and pops against a sorted-list model, exercising
   the hole-percolation paths with a heap that grows and shrinks. *)
let prop_push_pop_model =
  QCheck.Test.make ~name:"heap push/pop matches list model" ~count:200
    QCheck.(list_of_size Gen.(0 -- 120) (option time_gen))
    (fun ops ->
      let h = Heap.create () in
      let model = ref [] (* sorted (time, seq, id); seq breaks ties *) in
      let seq = ref 0 in
      let ok = ref true in
      List.iter
        (fun op ->
          match op with
          | Some time ->
              let id = !seq in
              incr seq;
              Heap.push h ~time id;
              model :=
                List.stable_sort
                  (fun (a, sa, _) (b, sb, _) -> compare (a, sa) (b, sb))
                  ((time, id, id) :: !model)
          | None -> (
              match (Heap.pop h, !model) with
              | None, [] -> ()
              | Some (time, payload), (mt, _, mid) :: rest ->
                  if time <> mt || payload <> mid then ok := false
                  else model := rest
              | _ -> ok := false))
        ops;
      !ok && Heap.length h = List.length !model)

let prop_pop_min_agrees =
  QCheck.Test.make ~name:"top_time/pop_min agree with pop" ~count:200
    QCheck.(list_of_size Gen.(1 -- 60) time_gen)
    (fun times ->
      let items = List.mapi (fun i t -> (t, i)) times in
      let a = heap_of items and b = heap_of items in
      let ok = ref true in
      while not (Heap.is_empty a) do
        let time = Heap.top_time a in
        let payload = Heap.pop_min a in
        (match Heap.pop b with
        | Some (time', payload') ->
            if time <> time' || payload <> payload' then ok := false
        | None -> ok := false)
      done;
      !ok && Heap.is_empty b)

(* --- heap: popped payloads must not be retained --- *)

(* Separate non-inlined stages so no stack slot of the test function
   keeps the payloads alive across the GC. *)
let[@inline never] fill_heap h n =
  let w = Weak.create n in
  for i = 0 to n - 1 do
    let payload = Bytes.make 24 'x' in
    Weak.set w i (Some payload);
    Heap.push h ~time:(float_of_int (n - i)) payload
  done;
  w

let[@inline never] drain_heap h = while Heap.pop h <> None do () done

let test_no_payload_retention () =
  let h = Heap.create () in
  let n = 33 in
  let w = fill_heap h n in
  drain_heap h;
  Gc.full_major ();
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check w i then incr live
  done;
  Alcotest.(check int) "popped payloads collected after drain" 0 !live;
  (* The heap stays usable after the drain. *)
  Heap.push h ~time:1. (Bytes.make 1 'y');
  Alcotest.(check int) "heap usable after drain" 1 (Heap.length h)

(* --- APL cache: reset, and LRU model equivalence --- *)

let test_apl_reset_clears_stats () =
  let c = Apl_cache.create () in
  ignore (Apl_cache.lookup c 7);
  ignore (Apl_cache.install c 7);
  ignore (Apl_cache.lookup c 7);
  ignore (Apl_cache.find_or_install c 9);
  let hits, misses, refills = Apl_cache.stats c in
  Alcotest.(check bool) "activity recorded" true (hits > 0 && misses > 0 && refills > 0);
  Apl_cache.reset c;
  Alcotest.(check (triple int int int)) "reset clears hits/misses/refills" (0, 0, 0)
    (Apl_cache.stats c);
  Alcotest.(check (list int)) "reset clears residency" [] (Apl_cache.resident_tags c);
  (* A fresh miss after reset counts from zero. *)
  ignore (Apl_cache.find_or_install c 7);
  Alcotest.(check (triple int int int)) "counting restarts" (0, 1, 1) (Apl_cache.stats c)

(* Naive reference model of the cache: an array scanned in full, an
   option-returning lookup, and its own hit/miss/refill counts.  Lookup
   returns the smallest slot holding the tag; victim = first empty
   slot, else first least-recently-used. *)
module Model = struct
  type t = {
    tags : int array;
    last_use : int array;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable refills : int;
  }

  let create () =
    {
      tags = Array.make Apl_cache.capacity (-1);
      last_use = Array.make Apl_cache.capacity 0;
      clock = 0;
      hits = 0;
      misses = 0;
      refills = 0;
    }

  let tick m =
    m.clock <- m.clock + 1;
    m.clock

  let lookup m tag =
    let found = ref None in
    for i = Apl_cache.capacity - 1 downto 0 do
      if m.tags.(i) = tag then found := Some i
    done;
    match !found with
    | Some i ->
        m.hits <- m.hits + 1;
        m.last_use.(i) <- tick m;
        Some i
    | None ->
        m.misses <- m.misses + 1;
        None

  let install m tag =
    let victim = ref 0 in
    for i = 0 to Apl_cache.capacity - 1 do
      if m.tags.(i) = -1 && m.tags.(!victim) <> -1 then victim := i
      else if
        m.tags.(i) <> -1
        && m.tags.(!victim) <> -1
        && m.last_use.(i) < m.last_use.(!victim)
      then victim := i
    done;
    m.tags.(!victim) <- tag;
    m.last_use.(!victim) <- tick m;
    m.refills <- m.refills + 1;
    !victim

  let ensure m tag =
    match lookup m tag with Some hw -> (hw, true) | None -> (install m tag, false)

  let stats m = (m.hits, m.misses, m.refills)

  let resident m = Array.to_list m.tags |> List.filter (fun t -> t >= 0)
end

(* Tag universe deliberately larger than the capacity so the stream
   forces evictions and re-installs. *)
let prop_apl_matches_model =
  QCheck.Test.make ~name:"apl_cache ensure matches naive LRU model" ~count:200
    QCheck.(list_of_size Gen.(0 -- 200) (int_range 0 45))
    (fun tags ->
      let c = Apl_cache.create () in
      let m = Model.create () in
      List.for_all (fun tag -> Apl_cache.find_or_install c tag = fst (Model.ensure m tag)) tags
      && Apl_cache.stats c = Model.stats m
      && Apl_cache.resident_tags c = Model.resident m)

(* The int-returning hit path against the option-returning model under
   arbitrary interleavings of lookups, raw installs (including installs
   of resident tags, which create duplicates: the hit path must then
   report the smallest slot), find_or_install calls and flushes,
   comparing every returned slot
   and the hit/miss/refill counts after every operation. *)
type apl_op = Look of int | Inst of int | Find of int | Flush

let apl_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun t -> Look t) (int_range 0 40));
        (3, map (fun t -> Inst t) (int_range 0 40));
        (3, map (fun t -> Find t) (int_range 0 40));
        (1, return Flush);
      ])

let show_apl_op = function
  | Look t -> Printf.sprintf "look %d" t
  | Inst t -> Printf.sprintf "inst %d" t
  | Find t -> Printf.sprintf "find %d" t
  | Flush -> "flush"

let prop_apl_hit_path_matches_model =
  QCheck.Test.make ~name:"apl_cache hit path matches lookup/install model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_apl_op ops))
       QCheck.Gen.(list_size (0 -- 250) apl_op_gen))
    (fun ops ->
      let c = Apl_cache.create () in
      let m = ref (Model.create ()) in
      List.for_all
        (fun op ->
          let same_slot =
            match op with
            | Look t ->
                let hw = Apl_cache.lookup c t in
                hw = Option.value (Model.lookup !m t) ~default:(-1)
            | Inst t -> Apl_cache.install c t = Model.install !m t
            | Find t -> Apl_cache.find_or_install c t = fst (Model.ensure !m t)
            | Flush ->
                Apl_cache.reset c;
                m := Model.create ();
                true
          in
          same_slot
          && Apl_cache.stats c = Model.stats !m
          && Apl_cache.resident_tags c = Model.resident !m)
        ops)

let prop_apl_lookup_pure_miss =
  QCheck.Test.make ~name:"apl_cache lookup misses do not mutate residency" ~count:100
    QCheck.(pair (list_of_size Gen.(0 -- 40) (int_range 0 45)) (int_range 100 200))
    (fun (tags, absent) ->
      let c = Apl_cache.create () in
      List.iter (fun tag -> ignore (Apl_cache.find_or_install c tag)) tags;
      let before = Apl_cache.resident_tags c in
      let r = Apl_cache.lookup c absent in
      r = -1 && Apl_cache.resident_tags c = before)

(* --- memory: unmapped reads, store disjointness, alignment --- *)

let test_memory_unmapped_zero () =
  let m = Memory.create () in
  Alcotest.(check int) "never-written word is 0" 0 (Memory.load_word m 0x5000);
  Alcotest.(check bool) "never-written cap is None" true (Memory.load_cap m 0x5000 = None);
  Alcotest.(check bool) "never-written instr is None" true (Memory.fetch m 0x5000 = None);
  (* Writing one page must not materialize values on another. *)
  Memory.store_word m 0x5000 42;
  Alcotest.(check int) "same page, other word still 0" 0 (Memory.load_word m 0x5008);
  Alcotest.(check int) "other page still 0" 0 (Memory.load_word m 0x9000);
  Alcotest.(check int) "written word reads back" 42 (Memory.load_word m 0x5000);
  (* Flip between pages: the page cache must not leak values
     across pages. *)
  Memory.store_word m 0x9000 7;
  Alcotest.(check int) "page A after touching page B" 42 (Memory.load_word m 0x5000);
  Alcotest.(check int) "page B after touching page A" 7 (Memory.load_word m 0x9000)

let test_memory_word_cap_disjoint () =
  let m = Memory.create () in
  let cap =
    {
      Capability.base = 0x2000;
      length = 0x100;
      perm = Perm.Read;
      scope = Capability.Synchronous { thread = 0; depth = 0; epoch = 0 };
    }
  in
  (* A word store at a 32-aligned address must not disturb the cap cell
     there, and vice versa. *)
  Memory.store_word m 0x4020 0xdead;
  Alcotest.(check bool) "word store leaves cap store empty" true
    (Memory.load_cap m 0x4020 = None);
  Memory.store_cap m 0x4020 cap;
  Alcotest.(check int) "cap store leaves word intact" 0xdead (Memory.load_word m 0x4020);
  Alcotest.(check bool) "cap reads back" true (Memory.load_cap m 0x4020 = Some cap);
  Memory.store_word m 0x4020 0xbeef;
  Alcotest.(check bool) "word overwrite leaves cap intact" true
    (Memory.load_cap m 0x4020 = Some cap)

let test_memory_alignment_faults () =
  let m = Memory.create () in
  let check_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  check_invalid "unaligned word load" (fun () -> Memory.load_word m 0x1001);
  check_invalid "word load aligned to 4 only" (fun () -> Memory.load_word m 0x1004);
  check_invalid "unaligned word store" (fun () -> Memory.store_word m 0x1001 1);
  check_invalid "unaligned cap load" (fun () -> Memory.load_cap m 0x1008);
  Alcotest.(check bool) "unaligned fetch is None, not a fault" true
    (Memory.fetch m 0x1002 = None)

(* --- APL: dense per-source rows against an association-list oracle --- *)

type grant_op = Grant of int * int * Perm.t | Revoke of int * int | Drop of int

(* Tags 0..23 (rows and cells grow as grants name new tags), every
   software permission including Owner and Nil, and self pairs: a self
   grant must be rejected, a self revoke must leave the implicit write
   in place. *)
let grant_op_gen =
  QCheck.Gen.(
    let tag = int_range 0 23 in
    frequency
      [
        ( 6,
          map3
            (fun src dst p -> Grant (src, dst, p))
            tag tag
            (oneofl [ Perm.Nil; Perm.Call; Perm.Read; Perm.Write; Perm.Owner ]) );
        (3, map2 (fun src dst -> Revoke (src, dst)) tag tag);
        (1, map (fun t -> Drop t) tag);
      ])

let show_grant_op = function
  | Grant (s, d, p) -> Printf.sprintf "grant %d->%d %s" s d (Perm.to_string p)
  | Revoke (s, d) -> Printf.sprintf "revoke %d->%d" s d
  | Drop t -> Printf.sprintf "drop %d" t

module Apl_oracle = struct
  (* ((src, dst), hardware permission), never holding Nil or self pairs *)
  type t = ((int * int) * Perm.t) list

  let permission (o : t) ~src ~dst =
    if src = dst then Perm.Write
    else Option.value (List.assoc_opt (src, dst) o) ~default:Perm.Nil

  let apply (o : t) = function
    | Grant (src, dst, p) ->
        let o = List.remove_assoc (src, dst) o in
        let hw = Perm.to_hardware p in
        if Perm.equal hw Perm.Nil then o else ((src, dst), hw) :: o
    | Revoke (src, dst) -> List.remove_assoc (src, dst) o
    | Drop tag -> List.filter (fun ((s, d), _) -> s <> tag && d <> tag) o
end

(* Probe tags: the whole generated range, the never-entered -1 and a
   tag far past every row. *)
let probe_tags = (-1) :: 1000 :: List.init 24 Fun.id

let prop_apl_matches_oracle =
  QCheck.Test.make ~name:"apl dense rows match association-list oracle" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_grant_op ops))
       QCheck.Gen.(list_size (0 -- 80) grant_op_gen))
    (fun ops ->
      let apl = Apl.create () in
      let oracle = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          let gen0 = Apl.generation apl in
          (match op with
          | Grant (src, dst, p) when src = dst -> (
              match Apl.grant apl ~src ~dst p with
              | () -> ok := false
              | exception Invalid_argument _ -> ())
          | Grant (src, dst, p) -> Apl.grant apl ~src ~dst p
          | Revoke (src, dst) -> Apl.revoke apl ~src ~dst
          | Drop tag -> Apl.drop_tag apl tag);
          (match op with
          | Grant (src, dst, _) when src = dst -> ()
          | _ ->
              oracle := Apl_oracle.apply !oracle op;
              if Apl.generation apl <= gen0 then ok := false);
          List.iter
            (fun src ->
              List.iter
                (fun dst ->
                  if
                    not
                      (Perm.equal (Apl.permission apl ~src ~dst)
                         (Apl_oracle.permission !oracle ~src ~dst))
                  then ok := false)
                probe_tags)
            probe_tags)
        ops;
      !ok)

(* --- memory: the multi-way word cache against a map model --- *)

module Int_map = Map.Make (Int)

(* 24 pages: three groups of four that share one cache way each (so
   every access to a group evicts a neighbour), plus twelve scattered
   pages; the last four are only ever loaded, never stored to, so
   absent pages stay cached as absent next to live ones. *)
let word_pages =
  let group way =
    let rec go p acc =
      if List.length acc = 4 then List.rev acc
      else go (p + 1) (if Layout.cache_way p = way then p :: acc else acc)
    in
    go 0x100 []
  in
  Array.of_list
    (group 3 @ group 17 @ group 40 @ List.init 12 (fun i -> 0x100000 + (i * 0x41)))

let stored_pages = Array.length word_pages - 4

type word_op = Wstore of int * int * int | Wload of int * int

let word_op_gen =
  QCheck.Gen.(
    let slot = int_range 0 7 in
    frequency
      [
        ( 2,
          map3
            (fun p w v -> Wstore (p, w, v))
            (int_range 0 (stored_pages - 1))
            slot (int_range 1 1000) );
        (3, map2 (fun p w -> Wload (p, w)) (int_range 0 (Array.length word_pages - 1)) slot);
      ])

let word_addr p w = (word_pages.(p) * Layout.page_size) + (w * 8 * 61)

let prop_word_cache_matches_map =
  QCheck.Test.make ~name:"multi-way word cache matches map model" ~count:300
    QCheck.(make Gen.(list_size (0 -- 300) word_op_gen))
    (fun ops ->
      let mem = Memory.create () in
      let model = ref Int_map.empty in
      List.for_all
        (function
          | Wstore (p, w, v) ->
              let a = word_addr p w in
              Memory.store_word mem a v;
              model := Int_map.add a v !model;
              Memory.load_word mem a = v
          | Wload (p, w) ->
              let a = word_addr p w in
              Memory.load_word mem a
              = Option.value (Int_map.find_opt a !model) ~default:0)
        ops)

(* A page cached as absent by a read must see the first store to it, in
   all three stores. *)
let test_memory_absent_then_store () =
  let m = Memory.create () in
  let cap =
    {
      Capability.base = 0x2000;
      length = 0x100;
      perm = Perm.Read;
      scope = Capability.Synchronous { thread = 0; depth = 0; epoch = 0 };
    }
  in
  Alcotest.(check int) "absent word" 0 (Memory.load_word m 0x7000);
  Memory.store_word m 0x7008 5;
  Alcotest.(check int) "first word store visible" 5 (Memory.load_word m 0x7008);
  Alcotest.(check bool) "absent cap" true (Memory.load_cap m 0x7020 = None);
  Memory.store_cap m 0x7020 cap;
  Alcotest.(check bool) "first cap store visible" true (Memory.load_cap m 0x7020 = Some cap);
  Alcotest.(check bool) "absent code" true (Memory.fetch m 0x9000 = None);
  ignore (Memory.place_code m ~addr:0x9000 [ Dipc_hw.Isa.Nop ]);
  Alcotest.(check bool) "first placed instruction visible" true
    (Memory.fetch m 0x9000 = Some Dipc_hw.Isa.Nop)

(* --- DCS: reused callee stacks never expose an earlier activation --- *)

(* Capabilities are told apart by their base. *)
let dcs_cap id =
  {
    Capability.base = id;
    length = 8;
    perm = Perm.Read;
    scope = Capability.Synchronous { thread = 0; depth = 0; epoch = 0 };
  }

let dcs_fault f =
  match f () with
  | _ -> None
  | exception Fault.Fault { Fault.kind = Fault.Dcs_bounds msg; _ } -> Some msg

(* The switched-to stack exposes exactly the [args] pushed right before
   the switch: they pop back in order, and the next pop is a bounds
   fault — never an entry of an earlier activation. *)
let check_fresh_switch d ~args =
  for i = 1 to args do
    Dcs.push d ~pc:0 (dcs_cap (10_000 + i))
  done;
  Dcs.switch d ~pc:0 ~args;
  Alcotest.(check int) "switched stack holds only the arguments" args (Dcs.depth d);
  Alcotest.(check int) "switched stack base" 0 (Dcs.base d);
  for i = args downto 1 do
    Alcotest.(check int) "argument" (10_000 + i) (Dcs.pop d ~pc:0).Capability.base
  done;
  Alcotest.(check (option string)) "nothing below the arguments"
    (Some "pop below base")
    (dcs_fault (fun () -> Dcs.pop d ~pc:0))

let test_dcs_nested_reuse () =
  let d = Dcs.create ~capacity:16 () in
  List.iter (fun id -> Dcs.push d ~pc:0 (dcs_cap id)) [ 1; 2; 3 ];
  Dcs.switch d ~pc:0 ~args:1;
  List.iter (fun id -> Dcs.push d ~pc:0 (dcs_cap id)) [ 4; 5 ];
  Dcs.switch d ~pc:0 ~args:2;
  Alcotest.(check int) "two frames detached" 2 (Dcs.saved_depth d);
  List.iter (fun id -> Dcs.push d ~pc:0 (dcs_cap id)) [ 6; 7; 8 ];
  Dcs.restore d ~pc:0 ~rets:1;
  Alcotest.(check int) "middle stack + result" 4 (Dcs.depth d);
  Alcotest.(check int) "result on top" 8 (Dcs.pop d ~pc:0).Capability.base;
  Dcs.restore d ~pc:0 ~rets:1;
  Alcotest.(check int) "outer stack + result" 4 (Dcs.depth d);
  Alcotest.(check int) "result on top" 5 (Dcs.pop d ~pc:0).Capability.base;
  (* Both levels now reuse the stacks that held 2, 4, 5, 6, 7, 8. *)
  check_fresh_switch d ~args:1;
  check_fresh_switch d ~args:0;
  Alcotest.(check int) "two frames detached again" 2 (Dcs.saved_depth d);
  Dcs.restore d ~pc:0 ~rets:0;
  Dcs.restore d ~pc:0 ~rets:0;
  Alcotest.(check (list int)) "outer stack intact" [ 10_001; 3; 2; 1 ]
    (List.init 4 (fun _ -> (Dcs.pop d ~pc:0).Capability.base))

(* Call.unwind skips the activations of dead callers: unwinding to an
   outer level re-installs the stack that level ran on and drops the
   inner ones, so nothing of theirs stays reachable. *)
let test_dcs_unwind_to () =
  let d = Dcs.create ~capacity:16 () in
  List.iter (fun id -> Dcs.push d ~pc:0 (dcs_cap id)) [ 1; 2 ];
  Dcs.switch d ~pc:0 ~args:1;
  Dcs.push d ~pc:0 (dcs_cap 3);
  Dcs.switch d ~pc:0 ~args:1;
  Dcs.push d ~pc:0 (dcs_cap 4);
  Dcs.unwind_to d ~level:1;
  Alcotest.(check int) "one frame left" 1 (Dcs.saved_depth d);
  Alcotest.(check int) "level-1 stack back" 2 (Dcs.depth d);
  Dcs.restore d ~pc:0 ~rets:1;
  Alcotest.(check (list int)) "outermost stack + result" [ 3; 2; 1 ]
    (List.init 3 (fun _ -> (Dcs.pop d ~pc:0).Capability.base));
  check_fresh_switch d ~args:1;
  check_fresh_switch d ~args:1;
  Dcs.unwind_to d ~level:0;
  Alcotest.(check int) "unwound" 0 (Dcs.saved_depth d);
  Alcotest.(check (option string)) "nothing to restore"
    (Some "no saved DCS to restore")
    (dcs_fault (fun () -> Dcs.restore d ~pc:0 ~rets:0))

(* An abandoned callee's restore returns no results: it faults neither
   for results the callee never pushed nor for a full caller stack, and
   it pops no outer frame.  When the fault came before the switch ran,
   abandoning detaches the caller's stack so the same restore finds
   it. *)
let test_dcs_abandon () =
  let d = Dcs.create ~capacity:4 () in
  List.iter (fun id -> Dcs.push d ~pc:0 (dcs_cap id)) [ 1; 2; 3; 4 ];
  Dcs.switch d ~pc:0 ~args:0;
  Dcs.push d ~pc:0 (dcs_cap 5);
  Dcs.switch d ~pc:0 ~args:1;
  Dcs.push d ~pc:0 (dcs_cap 6);
  Dcs.abandon d ~level:1;
  Alcotest.(check int) "inner frame dropped" 1 (Dcs.saved_depth d);
  Dcs.restore d ~pc:0 ~rets:3;
  Alcotest.(check int) "all frames restored" 0 (Dcs.saved_depth d);
  Alcotest.(check (list int)) "full outer stack, no results" [ 4; 3; 2; 1 ]
    (List.init 4 (fun _ -> (Dcs.pop d ~pc:0).Capability.base));
  Dcs.push d ~pc:0 (dcs_cap 7);
  Dcs.abandon d ~level:1;
  Alcotest.(check int) "switch that never ran" 1 (Dcs.saved_depth d);
  Dcs.restore d ~pc:0 ~rets:2;
  Alcotest.(check (list int)) "own stack back" [ 7 ]
    (List.init 1 (fun _ -> (Dcs.pop d ~pc:0).Capability.base));
  check_fresh_switch d ~args:0

(* Thread splitting clones a switched DCS: the two copies share no
   storage, and each one's later switches expose only their own
   arguments. *)
let test_dcs_clone_after_switch () =
  let d = Dcs.create ~capacity:16 () in
  List.iter (fun id -> Dcs.push d ~pc:0 (dcs_cap id)) [ 1; 2 ];
  Dcs.switch d ~pc:0 ~args:1;
  Dcs.push d ~pc:0 (dcs_cap 3);
  let c = Dcs.create ~capacity:16 () in
  Dcs.clone_into
    ~f:(fun cap -> { cap with Capability.base = cap.Capability.base + 100 })
    d ~into:c;
  Alcotest.(check int) "clone depth" 2 (Dcs.depth c);
  Alcotest.(check int) "clone frames" 1 (Dcs.saved_depth c);
  Alcotest.(check int) "clone entries mapped" 103 (Dcs.pop c ~pc:0).Capability.base;
  Alcotest.(check int) "original untouched" 2 (Dcs.depth d);
  Dcs.restore d ~pc:0 ~rets:1;
  Dcs.restore c ~pc:0 ~rets:1;
  Alcotest.(check (list int)) "original caller stack" [ 3; 2; 1 ]
    (List.init 3 (fun _ -> (Dcs.pop d ~pc:0).Capability.base));
  (* Detached stacks are copied unmapped. *)
  Alcotest.(check (list int)) "clone caller stack" [ 102; 2; 1 ]
    (List.init 3 (fun _ -> (Dcs.pop c ~pc:0).Capability.base));
  check_fresh_switch d ~args:1;
  check_fresh_switch c ~args:1

(* Random push/pop/switch/restore/drop/clear/set-base streams against a
   list model in which every switch really allocates a fresh stack.
   Every pop must return the model's entry, every fault must match, and
   at the end a fresh switch must expose only its arguments. *)
type dcs_op =
  | Dpush of int
  | Dpop
  | Dswitch of int
  | Drestore of int
  | Dunwind of int
  | Dabandon of int
  | Dbase of int

let dcs_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun i -> Dpush i) (int_range 1 999));
        (4, return Dpop);
        (2, map (fun n -> Dswitch n) (int_range 0 3));
        (2, map (fun n -> Drestore n) (int_range 0 3));
        (1, map (fun n -> Dunwind n) (int_range 0 3));
        (1, map (fun n -> Dabandon n) (int_range 0 3));
        (1, map (fun n -> Dbase n) (int_range 0 4));
      ])

let show_dcs_op = function
  | Dpush i -> Printf.sprintf "push %d" i
  | Dpop -> "pop"
  | Dswitch n -> Printf.sprintf "switch %d" n
  | Drestore n -> Printf.sprintf "restore %d" n
  | Dunwind n -> Printf.sprintf "unwind %d" n
  | Dabandon n -> Printf.sprintf "abandon %d" n
  | Dbase n -> Printf.sprintf "base %d" n

let dcs_capacity = 12

(* Model state: the active stack (top first), its base, and the detached
   frames (innermost first), each with its stack, base and whether the
   kernel abandoned its callee. *)
type dcs_frame = { fstack : int list; fbase : int; abandoned : bool }

type dcs_model = { stack : int list; mbase : int; frames : dcs_frame list }

let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> []

let rec drop n l = match l with _ :: r when n > 0 -> drop (n - 1) r | _ -> l

(* Re-install the stack of nesting [level] (frames counted from the
   outermost), dropping the frames above it. *)
let dcs_model_unwind m level =
  let n = List.length m.frames in
  if level >= n then m
  else
    let f = List.nth m.frames (n - 1 - level) in
    { stack = f.fstack; mbase = f.fbase; frames = drop (n - level) m.frames }

(* [Ok (model, popped)] or [Error fault message]. *)
let dcs_model_step m = function
  | Dpush i ->
      if List.length m.stack >= dcs_capacity then Error "overflow"
      else Ok ({ m with stack = i :: m.stack }, None)
  | Dpop -> (
      if List.length m.stack <= m.mbase then Error "pop below base"
      else match m.stack with x :: r -> Ok ({ m with stack = r }, Some x) | [] -> assert false)
  | Dswitch n ->
      if n > List.length m.stack - m.mbase then Error "more arguments than entries"
      else
        let f = { fstack = m.stack; fbase = m.mbase; abandoned = false } in
        Ok ({ stack = take n m.stack; mbase = 0; frames = f :: m.frames }, None)
  | Drestore n -> (
      match m.frames with
      | [] -> Error "no saved DCS to restore"
      | f :: rest ->
          let n = if f.abandoned then 0 else n in
          if n > List.length m.stack then Error "more results than entries"
          else if List.length f.fstack + n > dcs_capacity then Error "overflow on restore"
          else Ok ({ stack = take n m.stack @ f.fstack; mbase = f.fbase; frames = rest }, None))
  | Dunwind level -> Ok (dcs_model_unwind m level, None)
  | Dabandon level ->
      let n = List.length m.frames in
      if level < 1 || level > n + 1 then Error "invalid"
      else
        let m =
          if level > n then
            let f = { fstack = m.stack; fbase = m.mbase; abandoned = false } in
            { stack = []; mbase = 0; frames = f :: m.frames }
          else dcs_model_unwind m level
        in
        let frames =
          match m.frames with f :: r -> { f with abandoned = true } :: r | [] -> assert false
        in
        Ok ({ m with frames }, None)
  | Dbase n ->
      if n > List.length m.stack then Error "base out of range"
      else Ok ({ m with mbase = n }, None)

let dcs_real_step d = function
  | Dpush i -> Dcs.push d ~pc:0 (dcs_cap i); None
  | Dpop -> Some (Dcs.pop d ~pc:0).Capability.base
  | Dswitch n -> Dcs.switch d ~pc:0 ~args:n; None
  | Drestore n -> Dcs.restore d ~pc:0 ~rets:n; None
  | Dunwind n -> Dcs.unwind_to d ~level:n; None
  | Dabandon n -> Dcs.abandon d ~level:n; None
  | Dbase n -> Dcs.set_base d ~pc:0 n; None

let prop_dcs_matches_fresh_stack_model =
  QCheck.Test.make ~name:"dcs reuse matches fresh-stack model" ~count:400
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_dcs_op ops))
       QCheck.Gen.(list_size (0 -- 120) dcs_op_gen))
    (fun ops ->
      let d = Dcs.create ~capacity:dcs_capacity () in
      let rec go m = function
        | [] -> true
        | op :: rest -> (
            let real =
              match dcs_real_step d op with
              | v -> Ok v
              | exception Fault.Fault { Fault.kind = Fault.Dcs_bounds msg; _ } -> Error msg
              | exception Invalid_argument _ -> Error "invalid"
            in
            let agrees m =
              Dcs.depth d = List.length m.stack
              && Dcs.base d = m.mbase
              && Dcs.saved_depth d = List.length m.frames
            in
            match (dcs_model_step m op, real) with
            | Ok (m', popped), Ok popped' -> popped = popped' && agrees m' && go m' rest
            (* A fault, an overflowing restore included, changes nothing. *)
            | Error e, Error e' -> e = e' && agrees m && go m rest
            | _ -> false)
      in
      go { stack = []; mbase = 0; frames = [] } ops
      &&
      (* A fresh switch after any history exposes only its argument. *)
      (Dcs.unwind_to d ~level:0;
       Dcs.set_base d ~pc:0 0;
       while Dcs.depth d > dcs_capacity - 1 do ignore (Dcs.pop d ~pc:0) done;
       Dcs.push d ~pc:0 (dcs_cap 5000);
       Dcs.switch d ~pc:0 ~args:1;
       (Dcs.pop d ~pc:0).Capability.base = 5000
       && dcs_fault (fun () -> Dcs.pop d ~pc:0) = Some "pop below base"))

(* --- allocation gate: minor words per warm dIPC call --- *)

(* Ceilings on the minor-heap words one warm [Scenario.call] allocates,
   per Figure 5 policy.  Allocation is a deterministic function of the
   code path, so these are exact measurements, not noisy timings:
   a change that adds allocation to the warm call path fails here.
   Lower a ceiling when a change removes allocation; never raise one.
   What remains is one boxed float per retired instruction (the
   [ctx.cost] accumulator), the capabilities the proxies mint, and the
   call's [Ok] result.  The machine is pinned to the untraced,
   injector-free default dispatch path whatever the process-wide
   defaults are, so the gate measures the same path in every test
   configuration. *)
let warm_call_word_ceilings =
  [ ("same_low", 67); ("same_high", 319); ("proc_low", 173); ("proc_high", 341) ]

let warm_call_words ~same_process ~props =
  let sc =
    Dipc_core.Scenario.make ~same_process ~caller_props:props ~callee_props:props ()
  in
  let m = sc.Dipc_core.Scenario.sys.Dipc_core.System.machine in
  Dipc_hw.Machine.set_trace m Trace.null;
  Dipc_hw.Machine.set_inject m None;
  Dipc_hw.Machine.set_posture m Fault.Strict;
  Dipc_hw.Machine.set_block_cache m true;
  let args = [ 1; 2 ] in
  let call () =
    match Dipc_core.Scenario.call sc ~args with
    | Ok 3 -> ()
    | Ok v -> Alcotest.failf "warm call returned %d" v
    | Error f -> Alcotest.failf "warm call faulted: %s" (Fault.to_string f)
  in
  for _ = 1 to 5 do call () done;
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do call () done;
  (Gc.minor_words () -. w0) /. float_of_int n

let test_warm_call_allocation () =
  List.iter
    (fun (name, ceiling) ->
      let same_process = String.starts_with ~prefix:"same" name in
      let props =
        if String.ends_with ~suffix:"high" name then Dipc_core.Types.props_high
        else Dipc_core.Types.props_low
      in
      let words = warm_call_words ~same_process ~props in
      if words > float_of_int ceiling +. 0.5 then
        Alcotest.failf "%s: %.1f minor words per warm call, ceiling %d" name words ceiling)
    warm_call_word_ceilings

(* --- allocation gate: minor words per engine step in an OLTP cell --- *)

(* Ceiling on the minor-heap words per engine step (a fired event or a
   fast-path delay) of a small untraced Linux OLTP cell: 8 threads per
   tier, a 5 ms warm-up and a 50 ms measured window.  Like the warm-call
   gate this is an exact measurement, not a timing: it covers the event
   heap, effect dispatch and the kernel model's per-event work, plus
   the cell's fixed set-up, and moves only when the code path does.
   Measured 6.32 in the default build; the dev profile's -opaque, which
   stops cross-module inlining and so boxes the kernel model's float
   arguments, measures 8.29 and fails here.  Lower the ceiling when a
   change removes allocation; never raise it. *)
let oltp_words_per_step_ceiling = 6.5

let test_oltp_allocation () =
  let module O = Dipc_workloads.Oltp in
  let threads = 8 in
  let p =
    { (O.default_params ~db_mode:O.In_memory ~threads) with O.warmup = 5e6; duration = 5e7 }
  in
  let steps = ref 0 in
  let drive e deadline =
    Dipc_sim.Engine.run_until e deadline;
    steps := Dipc_sim.Engine.steps e
  in
  let w0 = Gc.minor_words () in
  let r =
    O.run ~params_override:(Some p) ~drive_until:drive ~config:O.Linux
      ~db_mode:O.In_memory ~threads ()
  in
  let words = Gc.minor_words () -. w0 in
  (* Pin the run itself, so the gate always measures the same timeline. *)
  Alcotest.(check int) "operations" 16 r.O.r_ops;
  Alcotest.(check int) "engine steps" 51565 !steps;
  let per_step = words /. float_of_int !steps in
  if per_step > oltp_words_per_step_ceiling then
    Alcotest.failf "%.3f minor words per engine step, ceiling %.2f" per_step
      oltp_words_per_step_ceiling

(* --- allocation gate: minor words per request in an open-arrival cell --- *)

(* Ceiling on the minor-heap words per request of a small Poisson cell:
   5,000 sessions at offered load 0.85 on a fixed 1 us service demand (no
   calibration run, so only [Openload.run] is measured: its arrival
   generator, the session heap, the RNG streams and the histogram, plus
   the cell's fixed set-up).  An exact measurement, like the gates above.
   Measured 23.79 in the default build and 30.79 under the dev profile's
   -opaque.  Lower the ceiling when a change removes allocation; never
   raise it. *)
let openload_words_per_request_ceiling = 24.0

let test_openload_allocation () =
  let module OL = Dipc_workloads.Openload in
  let p =
    OL.default_params ~seed:41 ~sessions:5_000 ~offered_load:0.85 ~arrival:OL.Poisson
      ~service_ns:1000. ()
  in
  let w0 = Gc.minor_words () in
  let r = OL.run p in
  let words = Gc.minor_words () -. w0 in
  (* Pin the run itself, so the gate always measures the same timeline. *)
  Alcotest.(check int) "requests" 9921 r.OL.r_requests;
  let per_request = words /. float_of_int r.OL.r_requests in
  if per_request > openload_words_per_request_ceiling then
    Alcotest.failf "%.3f minor words per request, ceiling %.2f" per_request
      openload_words_per_request_ceiling

(* --- trace digest: optimized fold equals the byte-at-a-time reference --- *)

(* Independent FNV-1a implementation (the straightforward one the digest
   documents); nothing here is shared with lib/sim/trace.ml. *)
let fnv_offset = 0xCBF29CE484222325L

let fnv_prime = 0x100000001B3L

let ref_mix h v =
  let h = ref h in
  for i = 0 to 7 do
    let byte = Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff in
    h := Int64.mul (Int64.logxor !h (Int64.of_int byte)) fnv_prime
  done;
  !h

let all_kinds =
  [
    Trace.Sched; Trace.Spawn; Trace.Resume; Trace.Suspend; Trace.Ctxsw; Trace.Ipi;
    Trace.Syscall; Trace.Domain_cross; Trace.Fault; Trace.Charge;
  ]

let kind_index kind =
  let rec go i = function
    | [] -> assert false
    | k :: rest -> if k = kind then i else go (i + 1) rest
  in
  go 0 all_kinds

let ref_event h ~ts ~kind ~cpu ~tid ~tag ~ci ~dur ~arg =
  let h = ref_mix h (Int64.bits_of_float ts) in
  let h = ref_mix h (Int64.of_int (kind_index kind)) in
  let h = ref_mix h (Int64.of_int cpu) in
  let h = ref_mix h (Int64.of_int tid) in
  let h = ref_mix h (Int64.of_int tag) in
  let h = ref_mix h (Int64.of_int ci) in
  let h = ref_mix h (Int64.bits_of_float dur) in
  ref_mix h (Int64.of_int arg)

(* Ints spanning every digest dispatch tier: one-byte, -1, two-byte, and
   arbitrary (including min_int/max_int sign-extension). *)
let digest_int_gen =
  QCheck.oneof
    [
      QCheck.int_range 0 255;
      QCheck.always (-1);
      QCheck.int_range 256 65535;
      QCheck.int;
      QCheck.oneofl [ min_int; max_int; -2; 1 lsl 40; -(1 lsl 40) ];
    ]

(* Floats spanning the fast paths: exact zero, short-mantissa values
   (low word of the pattern all zero) and arbitrary patterns. *)
let digest_float_gen =
  QCheck.oneof
    [
      QCheck.always 0.;
      QCheck.map float_of_int (QCheck.int_range 0 4096);
      QCheck.map (fun f -> f *. 1e-3) QCheck.pos_float;
      QCheck.float;
    ]

let cat_gen = QCheck.oneofl (None :: List.map (fun c -> Some c) Breakdown.all_categories)

let kind_gen = QCheck.oneofl all_kinds

let event_gen =
  QCheck.pair
    (QCheck.quad digest_float_gen kind_gen digest_int_gen digest_int_gen)
    (QCheck.quad digest_int_gen cat_gen digest_float_gen digest_int_gen)

let prop_digest_matches_reference =
  QCheck.Test.make ~name:"emit digest equals byte-at-a-time FNV-1a" ~count:500
    (QCheck.list_of_size QCheck.Gen.(1 -- 10) event_gen)
    (fun events ->
      let tr = Trace.create ~capacity:4 () in
      let expected =
        List.fold_left
          (fun h ((ts, kind, cpu, tid), (tag, cat, dur, arg)) ->
            Trace.emit tr ~ts ~cpu ~tid ~tag ?cat ~dur ~arg kind;
            let ci =
              match cat with None -> -1 | Some c -> Breakdown.category_index c
            in
            ref_event h ~ts ~kind ~cpu ~tid ~tag ~ci ~dur ~arg)
          fnv_offset events
      in
      Trace.digest tr = expected)

let prop_emit_bare_equivalent =
  QCheck.Test.make ~name:"emit_bare digest-equivalent to emit" ~count:300
    (QCheck.pair digest_float_gen kind_gen)
    (fun (ts, kind) ->
      let a = Trace.create () and b = Trace.create () in
      Trace.emit a ~ts kind;
      Trace.emit_bare b ~ts kind;
      Trace.digest a = Trace.digest b && Trace.events a = Trace.events b)

let prop_emit_charge_equivalent =
  QCheck.Test.make ~name:"emit_charge digest-equivalent to emit" ~count:300
    (QCheck.pair
       (QCheck.quad digest_float_gen digest_int_gen digest_int_gen digest_float_gen)
       (QCheck.oneofl Breakdown.all_categories))
    (fun ((ts, cpu, tid, dur), cat) ->
      let a = Trace.create () and b = Trace.create () in
      Trace.emit a ~ts ~cpu ~tid ~cat ~dur Trace.Charge;
      Trace.emit_charge b ~ts ~cpu ~tid ~cat ~dur;
      Trace.digest a = Trace.digest b && Trace.events a = Trace.events b)

let suites =
  [
    ( "perf.heap",
      qsuite
        [
          prop_pop_sorted;
          prop_fifo_at_equal_times;
          prop_matches_stable_sort;
          prop_push_pop_model;
          prop_pop_min_agrees;
        ]
      @ [ Alcotest.test_case "popped payloads not retained" `Quick test_no_payload_retention ]
    );
    ( "perf.apl_cache",
      Alcotest.test_case "reset clears statistics" `Quick test_apl_reset_clears_stats
      :: qsuite
           [
             prop_apl_matches_model;
             prop_apl_hit_path_matches_model;
             prop_apl_lookup_pure_miss;
           ] );
    ( "perf.memory",
      [
        Alcotest.test_case "unmapped reads return zero" `Quick test_memory_unmapped_zero;
        Alcotest.test_case "word and cap stores disjoint" `Quick
          test_memory_word_cap_disjoint;
        Alcotest.test_case "alignment faults" `Quick test_memory_alignment_faults;
        Alcotest.test_case "absent page then first store" `Quick
          test_memory_absent_then_store;
      ]
      @ qsuite [ prop_word_cache_matches_map ] );
    ("perf.apl", qsuite [ prop_apl_matches_oracle ]);
    ( "perf.dcs",
      [
        Alcotest.test_case "nested switch/restore reuse" `Quick test_dcs_nested_reuse;
        Alcotest.test_case "dropped frame (unwind)" `Quick test_dcs_unwind_to;
        Alcotest.test_case "abandoned callee (unwind)" `Quick test_dcs_abandon;
        Alcotest.test_case "clone after switch (split)" `Quick test_dcs_clone_after_switch;
      ]
      @ qsuite [ prop_dcs_matches_fresh_stack_model ] );
    ( "perf.alloc",
      [
        Alcotest.test_case "warm call minor words" `Quick test_warm_call_allocation;
        Alcotest.test_case "oltp minor words per engine step" `Quick test_oltp_allocation;
        Alcotest.test_case "open-arrival minor words per request" `Quick
          test_openload_allocation;
      ] );
    ( "perf.digest",
      qsuite
        [
          prop_digest_matches_reference;
          prop_emit_bare_equivalent;
          prop_emit_charge_equivalent;
        ] );
  ]
