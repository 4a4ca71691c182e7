(* Tests for the CODOMs machine model: permissions, tagged page table,
   APLs and the APL cache, capabilities (incl. revocation and synchronous
   scope), the DCS, the instruction interpreter and its protection
   checks, and the Table 1 architecture comparison. *)

module Perm = Dipc_hw.Perm
module Layout = Dipc_hw.Layout
module Page_table = Dipc_hw.Page_table
module Apl = Dipc_hw.Apl
module Apl_cache = Dipc_hw.Apl_cache
module Capability = Dipc_hw.Capability
module Dcs = Dipc_hw.Dcs
module Memory = Dipc_hw.Memory
module Machine = Dipc_hw.Machine
module Isa = Dipc_hw.Isa
module Fault = Dipc_hw.Fault
module Archcmp = Dipc_hw.Archcmp

(* --- perm --- *)

let test_perm_lattice () =
  Alcotest.(check bool) "write includes read" true (Perm.includes Perm.Write Perm.Read);
  Alcotest.(check bool) "read includes call" true (Perm.includes Perm.Read Perm.Call);
  Alcotest.(check bool) "call excludes read" false (Perm.includes Perm.Call Perm.Read);
  Alcotest.(check bool) "nil includes nothing" false (Perm.includes Perm.Nil Perm.Call);
  Alcotest.(check bool) "owner maps to write" true
    (Perm.equal (Perm.to_hardware Perm.Owner) Perm.Write)

let prop_perm_includes_transitive =
  let perms = [ Perm.Nil; Perm.Call; Perm.Read; Perm.Write; Perm.Owner ] in
  QCheck.Test.make ~name:"perm includes is transitive" ~count:200
    QCheck.(triple (int_range 0 4) (int_range 0 4) (int_range 0 4))
    (fun (a, b, c) ->
      let pa = List.nth perms a and pb = List.nth perms b and pc = List.nth perms c in
      (not (Perm.includes pa pb && Perm.includes pb pc)) || Perm.includes pa pc)

(* --- page table --- *)

let test_page_table_map_unmap () =
  let pt = Page_table.create () in
  Page_table.map pt ~addr:0x10000 ~count:2 ~tag:3 ();
  Alcotest.(check bool) "mapped" true (Page_table.is_mapped pt 0x10000);
  Alcotest.(check bool) "second page" true (Page_table.is_mapped pt 0x11000);
  Alcotest.(check bool) "beyond" false (Page_table.is_mapped pt 0x12000);
  Page_table.unmap pt ~addr:0x10000 ~count:2;
  Alcotest.(check bool) "unmapped" false (Page_table.is_mapped pt 0x10000)

let test_page_table_double_map_rejected () =
  let pt = Page_table.create () in
  Page_table.map pt ~addr:0x10000 ~count:1 ~tag:1 ();
  Alcotest.(check bool) "double map raises" true
    (try
       Page_table.map pt ~addr:0x10000 ~count:1 ~tag:2 ();
       false
     with Invalid_argument _ -> true)

let test_page_table_retag () =
  let pt = Page_table.create () in
  Page_table.map pt ~addr:0x10000 ~count:2 ~tag:1 ();
  Page_table.retag pt ~addr:0x10000 ~count:2 ~from_tag:1 ~to_tag:9;
  (match Page_table.find pt 0x10000 with
  | Some p -> Alcotest.(check int) "retagged" 9 p.Page_table.tag
  | None -> Alcotest.fail "page lost");
  Alcotest.(check bool) "wrong source tag rejected" true
    (try
       Page_table.retag pt ~addr:0x10000 ~count:1 ~from_tag:1 ~to_tag:2;
       false
     with Invalid_argument _ -> true)

(* --- apl --- *)

let test_apl_grants () =
  let apl = Apl.create () in
  let a = Apl.fresh_tag apl and b = Apl.fresh_tag apl in
  Alcotest.(check bool) "implicit self write" true
    (Perm.equal (Apl.permission apl ~src:a ~dst:a) Perm.Write);
  Alcotest.(check bool) "default nil" true
    (Perm.equal (Apl.permission apl ~src:a ~dst:b) Perm.Nil);
  Apl.grant apl ~src:a ~dst:b Perm.Read;
  Alcotest.(check bool) "granted read" true
    (Perm.equal (Apl.permission apl ~src:a ~dst:b) Perm.Read);
  Alcotest.(check bool) "asymmetric" true
    (Perm.equal (Apl.permission apl ~src:b ~dst:a) Perm.Nil);
  Apl.revoke apl ~src:a ~dst:b;
  Alcotest.(check bool) "revoked" true
    (Perm.equal (Apl.permission apl ~src:a ~dst:b) Perm.Nil)

let test_apl_drop_tag () =
  let apl = Apl.create () in
  let a = Apl.fresh_tag apl and b = Apl.fresh_tag apl and c = Apl.fresh_tag apl in
  Apl.grant apl ~src:a ~dst:b Perm.Read;
  Apl.grant apl ~src:b ~dst:c Perm.Call;
  Apl.drop_tag apl b;
  Alcotest.(check bool) "grants to dropped tag gone" true
    (Perm.equal (Apl.permission apl ~src:a ~dst:b) Perm.Nil);
  Alcotest.(check bool) "grants from dropped tag gone" true
    (Perm.equal (Apl.permission apl ~src:b ~dst:c) Perm.Nil)

(* --- apl cache --- *)

let test_apl_cache_hit_miss () =
  let c = Apl_cache.create () in
  Alcotest.(check int) "initial miss" (-1) (Apl_cache.lookup c 7);
  let hw = Apl_cache.install c 7 in
  let hw' = Apl_cache.lookup c 7 in
  Alcotest.(check bool) "hit" true (hw' >= 0);
  Alcotest.(check int) "stable hardware tag" hw hw'

let test_apl_cache_capacity_lru () =
  let c = Apl_cache.create () in
  for tag = 1 to Apl_cache.capacity do
    ignore (Apl_cache.install c tag)
  done;
  (* Touch tag 1 so it is recently used, then overflow. *)
  ignore (Apl_cache.lookup c 1);
  ignore (Apl_cache.install c 1000);
  Alcotest.(check bool) "recently used survives" true (Apl_cache.lookup c 1 >= 0);
  Alcotest.(check int) "still at capacity" Apl_cache.capacity
    (List.length (Apl_cache.resident_tags c))

let test_apl_cache_hw_tag_range () =
  let c = Apl_cache.create () in
  for tag = 100 to 200 do
    let hw = Apl_cache.install c tag in
    Alcotest.(check bool) "5-bit hardware tag" true (hw >= 0 && hw < 32)
  done

(* --- capabilities --- *)

let sync_scope = Capability.Synchronous { thread = 0; depth = 0; epoch = 0 }

let test_capability_covers () =
  let cap = { Capability.base = 0x1000; length = 0x100; perm = Perm.Read; scope = sync_scope } in
  Alcotest.(check bool) "inside" true (Capability.covers cap ~addr:0x1000 ~len:8);
  Alcotest.(check bool) "end" true (Capability.covers cap ~addr:0x10f8 ~len:8);
  Alcotest.(check bool) "past end" false (Capability.covers cap ~addr:0x10f9 ~len:8);
  Alcotest.(check bool) "before" false (Capability.covers cap ~addr:0xfff ~len:8)

let test_capability_restrict_no_amplify () =
  let cap = { Capability.base = 0x1000; length = 0x100; perm = Perm.Read; scope = sync_scope } in
  (match Capability.restrict cap ~base:0x1000 ~length:0x10 ~perm:Perm.Read with
  | Ok c -> Alcotest.(check int) "narrowed" 0x10 c.Capability.length
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "cannot widen range" true
    (Result.is_error (Capability.restrict cap ~base:0x0fff ~length:0x10 ~perm:Perm.Read));
  Alcotest.(check bool) "cannot amplify perm" true
    (Result.is_error (Capability.restrict cap ~base:0x1000 ~length:0x10 ~perm:Perm.Write))

let prop_capability_restrict_shrinks =
  QCheck.Test.make ~name:"restrict never expands authority" ~count:300
    QCheck.(quad (int_range 0 1000) (int_range 1 1000) (int_range 0 2000) (int_range 1 1000))
    (fun (base, len, b2, l2) ->
      let cap = { Capability.base; length = len; perm = Perm.Write; scope = sync_scope } in
      match Capability.restrict cap ~base:b2 ~length:l2 ~perm:Perm.Write with
      | Ok c ->
          c.Capability.base >= cap.Capability.base
          && c.Capability.base + c.Capability.length
             <= cap.Capability.base + cap.Capability.length
      | Error _ -> true)

let test_revocation () =
  let t = Capability.Revocation.create () in
  Alcotest.(check int) "initial" 0 (Capability.Revocation.value t ~tag:1 ~counter:0);
  Capability.Revocation.revoke t ~tag:1 ~counter:0;
  Alcotest.(check int) "bumped" 1 (Capability.Revocation.value t ~tag:1 ~counter:0);
  Alcotest.(check int) "independent counters" 0
    (Capability.Revocation.value t ~tag:1 ~counter:1)

(* --- DCS --- *)

let dummy_cap = { Capability.base = 0; length = 8; perm = Perm.Read; scope = sync_scope }

let test_dcs_push_pop () =
  let d = Dcs.create () in
  Dcs.push d ~pc:0 dummy_cap;
  Dcs.push d ~pc:0 { dummy_cap with Capability.base = 8 };
  Alcotest.(check int) "depth" 2 (Dcs.depth d);
  let c = Dcs.pop d ~pc:0 in
  Alcotest.(check int) "lifo" 8 c.Capability.base

let test_dcs_base_protection () =
  let d = Dcs.create () in
  Dcs.push d ~pc:0 dummy_cap;
  Dcs.set_base d ~pc:0 1;
  Alcotest.check_raises "pop below base faults"
    (Fault.Fault { Fault.kind = Fault.Dcs_bounds "pop below base"; pc = 0; addr = None })
    (fun () -> ignore (Dcs.pop d ~pc:0))

let test_dcs_switch_restore () =
  let d = Dcs.create () in
  Dcs.push d ~pc:0 dummy_cap;
  Dcs.push d ~pc:0 { dummy_cap with Capability.base = 8 };
  (* Switch copying 1 argument entry. *)
  Dcs.switch d ~pc:0 ~args:1;
  Alcotest.(check int) "fresh stack has the argument" 1 (Dcs.depth d);
  let arg = Dcs.pop d ~pc:0 in
  Alcotest.(check int) "argument is the top entry" 8 arg.Capability.base;
  Dcs.push d ~pc:0 { dummy_cap with Capability.base = 16 };
  Dcs.restore d ~pc:0 ~rets:1;
  Alcotest.(check int) "restored + result" 3 (Dcs.depth d);
  let result = Dcs.pop d ~pc:0 in
  Alcotest.(check int) "result copied back" 16 result.Capability.base

let test_dcs_overflow () =
  let d = Dcs.create ~capacity:2 () in
  Dcs.push d ~pc:0 dummy_cap;
  Dcs.push d ~pc:0 dummy_cap;
  Alcotest.check_raises "overflow"
    (Fault.Fault { Fault.kind = Fault.Dcs_bounds "overflow"; pc = 0; addr = None })
    (fun () -> Dcs.push d ~pc:0 dummy_cap)

(* --- machine: a small two-domain world --- *)

type world = {
  m : Machine.t;
  tag_a : int;
  tag_b : int;
  tag_s : int; (* the stacks domain: reachable only through capabilities *)
  code_a : int; (* page base for A's code *)
  code_b : int;
  data_a : int;
  data_b : int;
  stack_page : int;
  stack_a : int; (* top *)
}

let build_world () =
  let m = Machine.create () in
  let apl = m.Machine.apl in
  let tag_a = Apl.fresh_tag apl and tag_b = Apl.fresh_tag apl in
  let tag_s = Apl.fresh_tag apl in
  let pt = m.Machine.page_table in
  let code_a = 0x100000 and code_b = 0x200000 in
  let data_a = 0x300000 and data_b = 0x400000 in
  let stack_page = 0x500000 in
  Page_table.map pt ~addr:code_a ~count:1 ~tag:tag_a ~writable:false ~executable:true ();
  Page_table.map pt ~addr:code_b ~count:1 ~tag:tag_b ~writable:false ~executable:true ();
  Page_table.map pt ~addr:data_a ~count:1 ~tag:tag_a ();
  Page_table.map pt ~addr:data_b ~count:1 ~tag:tag_b ();
  Page_table.map pt ~addr:stack_page ~count:1 ~tag:tag_s ();
  { m; tag_a; tag_b; tag_s; code_a; code_b; data_a; data_b; stack_page;
    stack_a = stack_page + 0x1000 }

(* The thread-private stack capability, like dIPC's c6 convention: the
   stack travels with the thread across domains. *)
let install_stack_cap w ctx =
  ctx.Machine.cregs.(6) <-
    Some
      {
        Capability.base = w.stack_page;
        length = 0x1000;
        perm = Perm.Write;
        scope = Capability.Asynchronous { owner_tag = w.tag_s; counter = 0; value = 0 };
      }

(* Run instructions placed in A's code page; the program must end with
   Halt. *)
let run_in_a ?(setup = fun _ -> ()) w instrs =
  ignore (Memory.place_code w.m.Machine.mem ~addr:w.code_a instrs);
  let ctx = Machine.new_ctx w.m ~pc:w.code_a ~sp_value:w.stack_a in
  install_stack_cap w ctx;
  setup ctx;
  Machine.run w.m ctx;
  ctx

let expect_fault w instrs kind_check =
  ignore (Memory.place_code w.m.Machine.mem ~addr:w.code_a instrs);
  let ctx = Machine.new_ctx w.m ~pc:w.code_a ~sp_value:w.stack_a in
  install_stack_cap w ctx;
  match Machine.run w.m ctx with
  | () -> Alcotest.fail "expected a fault"
  | exception Fault.Fault f ->
      if not (kind_check f.Fault.kind) then
        Alcotest.failf "unexpected fault: %s" (Fault.to_string f)

let test_machine_arithmetic () =
  let w = build_world () in
  let ctx =
    run_in_a w
      [
        Isa.Const (0, 6);
        Isa.Const (1, 7);
        Isa.Mul (2, 0, 1);
        Isa.Addi (2, 2, 8);
        Isa.Shli (2, 2, 1);
        Isa.Halt;
      ]
  in
  Alcotest.(check int) "result" 100 ctx.Machine.regs.(2)

let test_machine_load_store_own_domain () =
  let w = build_world () in
  let ctx =
    run_in_a w
      [
        Isa.Const (1, w.data_a);
        Isa.Const (0, 1234);
        Isa.Store (1, 0, 0);
        Isa.Load (2, 1, 0);
        Isa.Halt;
      ]
  in
  Alcotest.(check int) "round trip" 1234 ctx.Machine.regs.(2)

let test_machine_denied_cross_domain_store () =
  let w = build_world () in
  expect_fault w
    [ Isa.Const (1, w.data_b); Isa.Const (0, 1); Isa.Store (1, 0, 0); Isa.Halt ]
    (function Fault.No_permission _ -> true | _ -> false)

let test_machine_apl_read_grant () =
  let w = build_world () in
  Apl.grant w.m.Machine.apl ~src:w.tag_a ~dst:w.tag_b Perm.Read;
  Machine.poke_words w.m ~addr:w.data_b [| 77 |];
  let ctx = run_in_a w [ Isa.Const (1, w.data_b); Isa.Load (0, 1, 0); Isa.Halt ] in
  Alcotest.(check int) "read allowed" 77 ctx.Machine.regs.(0);
  (* Read grant still forbids writing. *)
  expect_fault w
    [ Isa.Const (1, w.data_b); Isa.Store (1, 0, 1); Isa.Halt ]
    (function Fault.No_permission p -> Perm.equal p Perm.Write | _ -> false)

let test_machine_page_protection_honored () =
  let w = build_world () in
  (* APL write to B, but B's page is read-only: per-page bits win. *)
  Apl.grant w.m.Machine.apl ~src:w.tag_a ~dst:w.tag_b Perm.Write;
  Page_table.set_protection w.m.Machine.page_table ~addr:w.data_b ~count:1
    ~writable:false ();
  expect_fault w
    [ Isa.Const (1, w.data_b); Isa.Store (1, 0, 1); Isa.Halt ]
    (function Fault.Write_to_readonly -> true | _ -> false)

let test_machine_unmapped () =
  let w = build_world () in
  expect_fault w
    [ Isa.Const (1, 0x9999000); Isa.Load (0, 1, 0); Isa.Halt ]
    (function Fault.Unmapped -> true | _ -> false)

let test_machine_cross_domain_call_alignment () =
  let w = build_world () in
  Apl.grant w.m.Machine.apl ~src:w.tag_a ~dst:w.tag_b Perm.Call;
  (* The return path B->A needs its own authority (dIPC proxies hand the
     callee a return capability; here a plain APL grant suffices). *)
  Apl.grant w.m.Machine.apl ~src:w.tag_b ~dst:w.tag_a Perm.Read;
  (* An aligned entry point in B returns 55; a misaligned one exists 4
     bytes later. *)
  ignore
    (Memory.place_code w.m.Machine.mem ~addr:w.code_b
       [ Isa.Const (0, 55); Isa.Ret ]);
  let ctx =
    run_in_a w [ Isa.Call w.code_b; Isa.Halt ]
  in
  Alcotest.(check int) "entered through entry point" 55 ctx.Machine.regs.(0);
  expect_fault w
    [ Isa.Call (w.code_b + Isa.instr_bytes); Isa.Halt ]
    (function Fault.Not_entry_point -> true | _ -> false)

let test_machine_read_grant_allows_arbitrary_jump () =
  let w = build_world () in
  Apl.grant w.m.Machine.apl ~src:w.tag_a ~dst:w.tag_b Perm.Read;
  Apl.grant w.m.Machine.apl ~src:w.tag_b ~dst:w.tag_a Perm.Read;
  ignore
    (Memory.place_code w.m.Machine.mem ~addr:w.code_b
       [ Isa.Nop; Isa.Const (0, 9); Isa.Ret ]);
  (* Jump into the middle of B: fine with read. *)
  let ctx = run_in_a w [ Isa.Call (w.code_b + Isa.instr_bytes); Isa.Halt ] in
  Alcotest.(check int) "jumped mid-domain" 9 ctx.Machine.regs.(0)

let test_machine_no_call_no_entry () =
  let w = build_world () in
  ignore (Memory.place_code w.m.Machine.mem ~addr:w.code_b [ Isa.Ret ]);
  expect_fault w
    [ Isa.Call w.code_b; Isa.Halt ]
    (function Fault.No_permission _ -> true | _ -> false)

let test_machine_exec_violation () =
  let w = build_world () in
  expect_fault w
    [ Isa.Jmp w.data_a ]
    (function Fault.Exec_violation -> true | _ -> false)

let test_machine_privileged_instruction () =
  let w = build_world () in
  (* RdTp from an unprivileged page faults. *)
  expect_fault w
    [ Isa.RdTp 0; Isa.Halt ]
    (function Fault.Privilege_required -> true | _ -> false);
  (* Flip the privileged-capability bit: now allowed, no mode switch. *)
  (match Page_table.find w.m.Machine.page_table w.code_a with
  | Some p -> p.Page_table.priv_cap <- true
  | None -> Alcotest.fail "code page missing");
  let ctx =
    run_in_a w
      ~setup:(fun ctx -> ctx.Machine.tp <- 0xbeef0)
      [ Isa.RdTp 0; Isa.Halt ]
  in
  Alcotest.(check int) "tp read" 0xbeef0 ctx.Machine.regs.(0)

let test_machine_capability_data_access () =
  let w = build_world () in
  Machine.poke_words w.m ~addr:w.data_b [| 31337 |];
  (* No APL grant; hand the context a capability instead. *)
  let cap =
    { Capability.base = w.data_b; length = 64; perm = Perm.Read; scope = sync_scope }
  in
  let ctx0 = Machine.new_ctx w.m ~pc:w.code_a ~sp_value:w.stack_a in
  (* scope thread must match the context that uses it *)
  let cap = { cap with Capability.scope = Capability.Synchronous { thread = ctx0.Machine.id; depth = 0; epoch = 0 } } in
  ctx0.Machine.cregs.(0) <- Some cap;
  ignore
    (Memory.place_code w.m.Machine.mem ~addr:w.code_a
       [ Isa.Const (1, w.data_b); Isa.Load (0, 1, 0); Isa.Halt ]);
  Machine.run w.m ctx0;
  Alcotest.(check int) "capability authorised the load" 31337 ctx0.Machine.regs.(0)

let test_machine_capability_bounds () =
  let w = build_world () in
  let ctx0 = Machine.new_ctx w.m ~pc:w.code_a ~sp_value:w.stack_a in
  ctx0.Machine.cregs.(0) <-
    Some
      {
        Capability.base = w.data_b;
        length = 8;
        perm = Perm.Read;
        scope = Capability.Synchronous { thread = ctx0.Machine.id; depth = 0; epoch = 0 };
      };
  ignore
    (Memory.place_code w.m.Machine.mem ~addr:w.code_a
       [ Isa.Const (1, w.data_b + 8); Isa.Load (0, 1, 0); Isa.Halt ]);
  (match Machine.run w.m ctx0 with
  | () -> Alcotest.fail "expected out-of-bounds fault"
  | exception Fault.Fault f ->
      Alcotest.(check bool) "bounds fault" true
        (match f.Fault.kind with Fault.No_permission _ -> true | _ -> false))

let test_machine_cap_derive_and_use () =
  let w = build_world () in
  (* Derive a capability from the APL and use it after the grant would no
     longer be needed. *)
  Apl.grant w.m.Machine.apl ~src:w.tag_a ~dst:w.tag_b Perm.Write;
  let ctx =
    run_in_a w
      [
        Isa.Const (1, w.data_b);
        Isa.Const (2, 64);
        Isa.CapAplDerive (0, 1, 2, Perm.Write);
        Isa.Const (0, 99);
        Isa.Store (1, 0, 0);
        Isa.Load (3, 1, 0);
        Isa.Halt;
      ]
  in
  Alcotest.(check int) "store through derived cap" 99 ctx.Machine.regs.(3)

let test_machine_cap_derive_requires_apl () =
  let w = build_world () in
  expect_fault w
    [
      Isa.Const (1, w.data_b);
      Isa.Const (2, 64);
      Isa.CapAplDerive (0, 1, 2, Perm.Write);
      Isa.Halt;
    ]
    (function Fault.No_permission _ -> true | _ -> false)

let test_machine_sync_cap_dies_with_frame () =
  let w = build_world () in
  (* A function in A derives a capability, returns; the capability must be
     dead afterwards. *)
  let fn = w.code_a + 0x100 in
  ignore
    (Memory.place_code w.m.Machine.mem ~addr:fn
       [
         Isa.Const (1, w.data_a);
         Isa.Const (2, 64);
         Isa.CapAplDerive (0, 1, 2, Perm.Write);
         Isa.Ret;
       ]);
  expect_fault w
    [
      Isa.Call fn;
      (* back home: the sync cap in c0 is now dead; CapPush must fault *)
      Isa.CapPush 0;
      Isa.Halt;
    ]
    (function Fault.Cap_invalid -> true | _ -> false)

let test_machine_async_cap_revocation () =
  let w = build_world () in
  let ctx =
    run_in_a w
      [
        Isa.Const (1, w.data_a);
        Isa.Const (2, 64);
        Isa.CapAplDerive (0, 1, 2, Perm.Write);
        Isa.Const (3, 5) (* revocation counter index *);
        Isa.CapAsync (1, 0, 3);
        (* still valid: store through it *)
        Isa.Const (0, 11);
        Isa.Store (1, 0, 0);
        Isa.Halt;
      ]
  in
  Alcotest.(check int) "async cap worked" 11 (Machine.peek_word w.m ~addr:w.data_a);
  ignore ctx;
  (* Now revoke counter 5 and try to use a fresh context with the same
     stored capability. *)
  let ctx2 = Machine.new_ctx w.m ~pc:w.code_a ~sp_value:w.stack_a in
  ctx2.Machine.cregs.(1) <-
    Some
      {
        Capability.base = w.data_a;
        length = 64;
        perm = Perm.Write;
        scope = Capability.Asynchronous { owner_tag = w.tag_a; counter = 5; value = 0 };
      };
  Capability.Revocation.revoke w.m.Machine.revocation ~tag:w.tag_a ~counter:5;
  ignore
    (Memory.place_code w.m.Machine.mem ~addr:w.code_b [ Isa.Halt ]);
  ignore
    (Memory.place_code w.m.Machine.mem ~addr:w.code_a
       [ Isa.Const (1, w.data_b); Isa.Store (1, 0, 0); Isa.Halt ]);
  (match Machine.run w.m ctx2 with
  | () -> Alcotest.fail "expected revoked-capability fault"
  | exception Fault.Fault f ->
      Alcotest.(check bool) "revoked" true
        (match f.Fault.kind with Fault.No_permission _ -> true | _ -> false))

let test_machine_cap_storage_bit () =
  let w = build_world () in
  let cap_page = 0x600000 in
  Page_table.map w.m.Machine.page_table ~addr:cap_page ~count:1 ~tag:w.tag_a
    ~cap_store:true ();
  (* Regular stores to a capability page fault. *)
  expect_fault w
    [ Isa.Const (1, cap_page); Isa.Store (1, 0, 0); Isa.Halt ]
    (function Fault.Cap_storage _ -> true | _ -> false);
  (* Capability store/load round trip works there, and capability access
     to a regular page faults. *)
  let ctx =
    run_in_a w
      [
        Isa.Const (1, w.data_a);
        Isa.Const (2, 64);
        Isa.CapAplDerive (0, 1, 2, Perm.Write);
        Isa.Const (3, cap_page);
        Isa.CapStore (3, 0, 0);
        Isa.CapLoad (4, 3, 0);
        Isa.Halt;
      ]
  in
  Alcotest.(check bool) "cap round-tripped" true (ctx.Machine.cregs.(4) <> None);
  expect_fault w
    [
      Isa.Const (1, w.data_a);
      Isa.Const (2, 64);
      Isa.CapAplDerive (0, 1, 2, Perm.Write);
      Isa.Const (3, w.data_a);
      Isa.CapStore (3, 0, 0);
      Isa.Halt;
    ]
    (function Fault.Cap_storage _ -> true | _ -> false)

(* Page protection bits on capability pages report the same faults as
   on data pages: a load from a non-readable page lacks Read, only a
   store to a non-writable page is a read-only violation. *)
let test_machine_cap_page_bits () =
  let w = build_world () in
  let unreadable = 0x600000 and readonly = 0x700000 in
  Page_table.map w.m.Machine.page_table ~addr:unreadable ~count:1 ~tag:w.tag_a
    ~readable:false ~writable:false ~cap_store:true ();
  Page_table.map w.m.Machine.page_table ~addr:readonly ~count:1 ~tag:w.tag_a
    ~writable:false ~cap_store:true ();
  expect_fault w
    [ Isa.Const (3, unreadable); Isa.CapLoad (4, 3, 0); Isa.Halt ]
    (function Fault.No_permission p -> Perm.equal p Perm.Read | _ -> false);
  expect_fault w
    [ Isa.Const (3, readonly); Isa.CapStore (3, 0, 6); Isa.Halt ]
    (function Fault.Write_to_readonly -> true | _ -> false)

let test_machine_costs_accumulate () =
  let w = build_world () in
  let ctx = run_in_a w [ Isa.Nop; Isa.Nop; Isa.Halt ] in
  Alcotest.(check int) "instret" 3 ctx.Machine.instret;
  Alcotest.(check bool) "cost positive" true (ctx.Machine.cost > 0.)

let test_machine_apl_cache_counts () =
  let w = build_world () in
  Apl.grant w.m.Machine.apl ~src:w.tag_a ~dst:w.tag_b Perm.Call;
  Apl.grant w.m.Machine.apl ~src:w.tag_b ~dst:w.tag_a Perm.Read;
  ignore (Memory.place_code w.m.Machine.mem ~addr:w.code_b [ Isa.Ret ]);
  let ctx =
    run_in_a w [ Isa.Call w.code_b; Isa.Call w.code_b; Isa.Halt ]
  in
  let _, misses, _ = Apl_cache.stats ctx.Machine.apl_cache in
  (* First touch of each domain misses; afterwards everything hits. *)
  Alcotest.(check bool) "at most 2 misses" true (misses <= 2)

(* --- instruction semantics against the ISA definition --- *)

(* One directed case per constructor that no other test names, each run
   on both dispatchers (the reference stepper and superblocks share one
   compiled semantics, so their differential alone cannot catch a wrong
   closure).  Expected registers, DCS state and costs come from the ISA
   (isa.mli, paper Sec. 4): every retired instruction charges
   [Isa.cost], an APL-cache refill adds [Machine.apl_cache_refill_cost],
   and a privileged instruction on an unprivileged page raises
   [Privilege_required] at its own pc under the Strict posture. *)

let dispatchers = [ ("reference", false); ("superblocks", true) ]

let grant_priv w =
  match Page_table.find w.m.Machine.page_table w.code_a with
  | Some p -> p.Page_table.priv_cap <- true
  | None -> Alcotest.fail "code page missing"

(* Run [instrs] from A's code page; [None] = halted, [Some f] = faulted. *)
let run_isa ~compiled ?(priv = false) ?(setup = fun _ _ -> ()) instrs =
  let w = build_world () in
  Machine.set_block_cache w.m compiled;
  Machine.set_posture w.m Fault.Strict;
  if priv then grant_priv w;
  ignore (Memory.place_code w.m.Machine.mem ~addr:w.code_a instrs);
  let ctx = Machine.new_ctx w.m ~pc:w.code_a ~sp_value:w.stack_a in
  install_stack_cap w ctx;
  setup w ctx;
  let outcome =
    match Machine.run w.m ctx with () -> None | exception Fault.Fault f -> Some f
  in
  (w, ctx, outcome)

let check_halted name = function
  | None -> ()
  | Some f -> Alcotest.failf "%s: unexpected fault %s" name (Fault.to_string f)

(* [retired] lists the instructions executed, in order. *)
let check_retired ?(extra = 0.) name ctx retired =
  Alcotest.(check int) (name ^ ": instret") (List.length retired)
    ctx.Machine.instret;
  Alcotest.(check (float 1e-9))
    (name ^ ": cost")
    (List.fold_left (fun acc i -> acc +. Isa.cost i) 0. retired +. extra)
    ctx.Machine.cost

(* [instr] at the second slot of an unprivileged page faults at its own
   pc; [unchanged] checks that it left no architectural effect. *)
let check_privileged instr unchanged =
  List.iter
    (fun (mode, compiled) ->
      let w, ctx, outcome = run_isa ~compiled [ Isa.Const (1, 1); instr; Isa.Halt ] in
      match outcome with
      | Some { Fault.kind = Fault.Privilege_required; pc; _ } ->
          Alcotest.(check int) (mode ^ ": fault pc") (w.code_a + Isa.instr_bytes) pc;
          unchanged mode ctx
      | _ -> Alcotest.failf "%s: %a must need privilege" mode Isa.pp instr)
    dispatchers

let test_isa_bne () =
  let skip = 0x100000 + (6 * Isa.instr_bytes) in
  let prog =
    [
      Isa.Const (1, 5);
      Isa.Const (2, 5);
      Isa.Bne (1, 2, skip) (* equal: falls through *);
      Isa.Const (3, 1);
      Isa.Bne (1, 3, skip) (* 5 <> 1: taken *);
      Isa.Const (4, 99) (* skipped *);
      Isa.Halt;
    ]
  in
  let retired = List.filteri (fun i _ -> i <> 5) prog in
  List.iter
    (fun (mode, compiled) ->
      let _, ctx, outcome = run_isa ~compiled prog in
      check_halted mode outcome;
      Alcotest.(check int) (mode ^ ": fall-through ran") 1 ctx.Machine.regs.(3);
      Alcotest.(check int) (mode ^ ": taken arm skipped") 0 ctx.Machine.regs.(4);
      check_retired mode ctx retired)
    dispatchers

let test_isa_rddepth () =
  (* the hardware call depth: 0 at the top level, 1 inside one Call *)
  let fn = 0x100000 + 0x100 in
  let body = [ Isa.RdDepth 2; Isa.Ret ] in
  let main = [ Isa.RdDepth 1; Isa.Call fn; Isa.Halt ] in
  List.iter
    (fun (mode, compiled) ->
      let _, ctx, outcome =
        run_isa ~compiled ~priv:true
          ~setup:(fun w _ -> ignore (Memory.place_code w.m.Machine.mem ~addr:fn body))
          main
      in
      check_halted mode outcome;
      Alcotest.(check int) (mode ^ ": top-level depth") 0 ctx.Machine.regs.(1);
      Alcotest.(check int) (mode ^ ": depth inside the call") 1 ctx.Machine.regs.(2);
      check_retired mode ctx
        [ Isa.RdDepth 1; Isa.Call fn; Isa.RdDepth 2; Isa.Ret; Isa.Halt ])
    dispatchers;
  check_privileged (Isa.RdDepth 2) (fun mode ctx ->
      Alcotest.(check int) (mode ^ ": rd untouched") 0 ctx.Machine.regs.(2))

let test_isa_fsbase () =
  (* WrFsBase/RdFsBase are unprivileged: the TLS segment base starts at 0
     and reads back what was written *)
  let prog =
    [ Isa.RdFsBase 3; Isa.Const (1, 0x7000); Isa.WrFsBase 1; Isa.RdFsBase 2; Isa.Halt ]
  in
  List.iter
    (fun (mode, compiled) ->
      let _, ctx, outcome = run_isa ~compiled prog in
      check_halted mode outcome;
      Alcotest.(check int) (mode ^ ": initial fs base") 0 ctx.Machine.regs.(3);
      Alcotest.(check int) (mode ^ ": fs base written") 0x7000 ctx.Machine.fsbase;
      Alcotest.(check int) (mode ^ ": fs base read back") 0x7000 ctx.Machine.regs.(2);
      check_retired mode ctx prog)
    dispatchers

let test_isa_gethwtag () =
  (* every world allocates the same tags, so these name its domains *)
  let w0 = build_world () in
  let prog_a = [ Isa.Const (1, w0.tag_a); Isa.GetHwTag (2, 1); Isa.Halt ] in
  let prog_b = [ Isa.Const (1, w0.tag_b); Isa.GetHwTag (2, 1); Isa.Halt ] in
  List.iter
    (fun (mode, compiled) ->
      (* hit: the running domain's own tag is resident since the first
         fetch *)
      let _, ctx, outcome = run_isa ~compiled ~priv:true prog_a in
      check_halted mode outcome;
      Alcotest.(check int) (mode ^ ": hit returns the resident hw tag")
        (Apl_cache.lookup ctx.Machine.apl_cache w0.tag_a)
        ctx.Machine.regs.(2);
      check_retired mode ctx prog_a;
      (* miss, auto-fill: B's tag is installed and the refill charged *)
      let _, ctx, outcome = run_isa ~compiled ~priv:true prog_b in
      check_halted mode outcome;
      let hw = Apl_cache.lookup ctx.Machine.apl_cache w0.tag_b in
      Alcotest.(check bool) (mode ^ ": miss installs the tag") true (hw >= 0);
      Alcotest.(check int) (mode ^ ": miss returns the new hw tag") hw
        ctx.Machine.regs.(2);
      check_retired mode ctx prog_b ~extra:Machine.apl_cache_refill_cost;
      (* miss, strict cache: the lookup faults with the missing tag *)
      let w, ctx, outcome =
        run_isa ~compiled ~priv:true
          ~setup:(fun w _ -> w.m.Machine.strict_apl_cache <- true)
          prog_b
      in
      (match outcome with
      | Some { Fault.kind = Fault.Apl_cache_miss t; pc; _ } ->
          Alcotest.(check int) (mode ^ ": strict miss names the tag") w.tag_b t;
          Alcotest.(check int) (mode ^ ": strict miss pc")
            (w.code_a + Isa.instr_bytes) pc
      | _ -> Alcotest.failf "%s: strict miss must fault" mode);
      Alcotest.(check int) (mode ^ ": strict miss writes nothing") 0
        ctx.Machine.regs.(2))
    dispatchers;
  check_privileged (Isa.GetHwTag (2, 1)) (fun mode ctx ->
      Alcotest.(check int) (mode ^ ": rd untouched") 0 ctx.Machine.regs.(2))

let test_isa_caprevoke () =
  (* CapRevoke bumps the running domain's counter: capabilities stamped
     under it die, those on other counters live on *)
  let prog =
    [
      Isa.Const (1, 0x300000);
      Isa.Const (2, 64);
      Isa.CapAplDerive (0, 1, 2, Perm.Write);
      Isa.Const (3, 3);
      Isa.Const (4, 4);
      Isa.CapAsync (1, 0, 3);
      Isa.CapAsync (2, 0, 4);
      Isa.CapRevoke 3;
      Isa.Halt;
    ]
  in
  List.iter
    (fun (mode, compiled) ->
      let w, ctx, outcome = run_isa ~compiled prog in
      check_halted mode outcome;
      let value counter =
        Capability.Revocation.value w.m.Machine.revocation ~tag:w.tag_a ~counter
      in
      Alcotest.(check int) (mode ^ ": counter 3 bumped") 1 (value 3);
      Alcotest.(check int) (mode ^ ": counter 4 untouched") 0 (value 4);
      let valid c =
        match ctx.Machine.cregs.(c) with
        | Some cap -> Machine.cap_valid w.m ctx cap
        | None -> Alcotest.failf "%s: c%d empty" mode c
      in
      Alcotest.(check bool) (mode ^ ": revoked capability dead") false (valid 1);
      Alcotest.(check bool) (mode ^ ": other counter's capability live") true
        (valid 2);
      check_retired mode ctx prog)
    dispatchers

let test_isa_capclear () =
  let prog =
    [
      Isa.Const (1, 0x300000);
      Isa.Const (2, 64);
      Isa.CapAplDerive (0, 1, 2, Perm.Write);
      Isa.CapAplDerive (1, 1, 2, Perm.Read);
      Isa.CapClear 0;
      Isa.Halt;
    ]
  in
  List.iter
    (fun (mode, compiled) ->
      let _, ctx, outcome = run_isa ~compiled prog in
      check_halted mode outcome;
      Alcotest.(check bool) (mode ^ ": c0 cleared") true (ctx.Machine.cregs.(0) = None);
      Alcotest.(check bool) (mode ^ ": c1 kept") true (ctx.Machine.cregs.(1) <> None);
      Alcotest.(check bool) (mode ^ ": stack capability kept") true
        (ctx.Machine.cregs.(6) <> None);
      check_retired mode ctx prog)
    dispatchers

let test_isa_dcs_base () =
  (* DcsGetBase reads the DCS base (0 on a fresh stack); DcsSetBase
     raises it, after which unprivileged pops below it fault *)
  let prog =
    [
      Isa.DcsGetBase 1;
      Isa.CapPush 6;
      Isa.CapPush 6;
      Isa.Const (2, 2);
      Isa.DcsSetBase 2;
      Isa.DcsGetBase 3;
      Isa.CapPop 4;
      Isa.Halt;
    ]
  in
  List.iter
    (fun (mode, compiled) ->
      let w, ctx, outcome = run_isa ~compiled ~priv:true prog in
      (match outcome with
      | Some { Fault.kind = Fault.Dcs_bounds _; pc; _ } ->
          Alcotest.(check int) (mode ^ ": pop below base faults")
            (w.code_a + (6 * Isa.instr_bytes)) pc
      | _ -> Alcotest.failf "%s: pop below the raised base must fault" mode);
      Alcotest.(check int) (mode ^ ": fresh base") 0 ctx.Machine.regs.(1);
      Alcotest.(check int) (mode ^ ": base read back") 2 ctx.Machine.regs.(3);
      Alcotest.(check int) (mode ^ ": DCS base") 2 (Dcs.base ctx.Machine.dcs);
      Alcotest.(check int) (mode ^ ": DCS depth") 2 (Dcs.depth ctx.Machine.dcs);
      Alcotest.(check bool) (mode ^ ": c4 not written") true
        (ctx.Machine.cregs.(4) = None);
      (* the faulting pop retires and is charged before it faults *)
      check_retired mode ctx (List.filteri (fun i _ -> i < 7) prog))
    dispatchers;
  check_privileged (Isa.DcsGetBase 2) (fun mode ctx ->
      Alcotest.(check int) (mode ^ ": rd untouched") 0 ctx.Machine.regs.(2));
  check_privileged (Isa.DcsSetBase 1) (fun mode ctx ->
      Alcotest.(check int) (mode ^ ": base unchanged") 0 (Dcs.base ctx.Machine.dcs))

let test_isa_dcs_switch_restore () =
  (* DcsSwitch r: a fresh stack holding only the top r entries; DcsRestore
     r: the caller's stack back, plus the callee's top r entries *)
  let prog =
    [
      Isa.CapPush 6;
      Isa.CapPush 6;
      Isa.CapPush 6;
      Isa.Const (1, 1);
      Isa.DcsSwitch 1;
      Isa.DcsGetTop 2;
      Isa.DcsGetBase 3;
      Isa.CapPush 6;
      Isa.DcsRestore 1;
      Isa.DcsGetTop 4;
      Isa.Halt;
    ]
  in
  List.iter
    (fun (mode, compiled) ->
      let _, ctx, outcome =
        run_isa ~compiled ~priv:true
          ~setup:(fun _ ctx -> ctx.Machine.regs.(3) <- -1)
          prog
      in
      check_halted mode outcome;
      Alcotest.(check int) (mode ^ ": callee sees only the argument") 1
        ctx.Machine.regs.(2);
      Alcotest.(check int) (mode ^ ": callee base") 0 ctx.Machine.regs.(3);
      Alcotest.(check int) (mode ^ ": caller stack plus one result") 4
        ctx.Machine.regs.(4);
      Alcotest.(check int) (mode ^ ": no stack left detached") 0
        (Dcs.saved_depth ctx.Machine.dcs);
      check_retired mode ctx prog)
    dispatchers;
  (* a restore with nothing detached is a DCS bounds fault *)
  List.iter
    (fun (mode, compiled) ->
      let w, ctx, outcome =
        run_isa ~compiled ~priv:true [ Isa.Const (1, 0); Isa.DcsRestore 1; Isa.Halt ]
      in
      (match outcome with
      | Some { Fault.kind = Fault.Dcs_bounds _; pc; _ } ->
          Alcotest.(check int) (mode ^ ": restore fault pc")
            (w.code_a + Isa.instr_bytes) pc
      | _ -> Alcotest.failf "%s: restore without a switch must fault" mode);
      Alcotest.(check int) (mode ^ ": depth unchanged") 0 (Dcs.depth ctx.Machine.dcs))
    dispatchers;
  let untouched mode ctx =
    Alcotest.(check int) (mode ^ ": nothing detached") 0
      (Dcs.saved_depth ctx.Machine.dcs)
  in
  check_privileged (Isa.DcsSwitch 1) untouched;
  check_privileged (Isa.DcsRestore 1) untouched

(* --- archcmp (Table 1) --- *)

let test_archcmp_rows () =
  let rows = Archcmp.table ~bytes:4096 in
  Alcotest.(check int) "four architectures" 4 (List.length rows);
  let cost arch =
    let r = List.find (fun r -> r.Archcmp.row_arch = arch) rows in
    r.Archcmp.switch_cost
  in
  Alcotest.(check bool) "codoms cheapest switch" true
    (cost Archcmp.Codoms < cost Archcmp.Mmp
    && cost Archcmp.Mmp < cost Archcmp.Conventional
    && cost Archcmp.Codoms < cost Archcmp.Cheri)

let test_archcmp_data () =
  let rows = Archcmp.table ~bytes:65536 in
  let data arch =
    let r = List.find (fun r -> r.Archcmp.row_arch = arch) rows in
    r.Archcmp.data_cost
  in
  Alcotest.(check bool) "capability setup beats memcpy" true
    (data Archcmp.Codoms < data Archcmp.Conventional);
  Alcotest.(check bool) "codoms == cheri for data" true
    (data Archcmp.Codoms = data Archcmp.Cheri)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "hw.perm",
      [ Alcotest.test_case "lattice" `Quick test_perm_lattice ]
      @ qsuite [ prop_perm_includes_transitive ] );
    ( "hw.page_table",
      [
        Alcotest.test_case "map/unmap" `Quick test_page_table_map_unmap;
        Alcotest.test_case "double map" `Quick test_page_table_double_map_rejected;
        Alcotest.test_case "retag" `Quick test_page_table_retag;
      ] );
    ( "hw.apl",
      [
        Alcotest.test_case "grants" `Quick test_apl_grants;
        Alcotest.test_case "drop tag" `Quick test_apl_drop_tag;
      ] );
    ( "hw.apl_cache",
      [
        Alcotest.test_case "hit/miss" `Quick test_apl_cache_hit_miss;
        Alcotest.test_case "capacity + LRU" `Quick test_apl_cache_capacity_lru;
        Alcotest.test_case "hw tag range" `Quick test_apl_cache_hw_tag_range;
      ] );
    ( "hw.capability",
      [
        Alcotest.test_case "covers" `Quick test_capability_covers;
        Alcotest.test_case "restrict" `Quick test_capability_restrict_no_amplify;
        Alcotest.test_case "revocation" `Quick test_revocation;
      ]
      @ qsuite [ prop_capability_restrict_shrinks ] );
    ( "hw.dcs",
      [
        Alcotest.test_case "push/pop" `Quick test_dcs_push_pop;
        Alcotest.test_case "base protection" `Quick test_dcs_base_protection;
        Alcotest.test_case "switch/restore" `Quick test_dcs_switch_restore;
        Alcotest.test_case "overflow" `Quick test_dcs_overflow;
      ] );
    ( "hw.machine",
      [
        Alcotest.test_case "arithmetic" `Quick test_machine_arithmetic;
        Alcotest.test_case "load/store own domain" `Quick test_machine_load_store_own_domain;
        Alcotest.test_case "cross-domain store denied" `Quick test_machine_denied_cross_domain_store;
        Alcotest.test_case "APL read grant" `Quick test_machine_apl_read_grant;
        Alcotest.test_case "page bits honored" `Quick test_machine_page_protection_honored;
        Alcotest.test_case "unmapped" `Quick test_machine_unmapped;
        Alcotest.test_case "entry-point alignment" `Quick test_machine_cross_domain_call_alignment;
        Alcotest.test_case "read allows arbitrary jump" `Quick test_machine_read_grant_allows_arbitrary_jump;
        Alcotest.test_case "no perm, no entry" `Quick test_machine_no_call_no_entry;
        Alcotest.test_case "exec violation" `Quick test_machine_exec_violation;
        Alcotest.test_case "privileged capability bit" `Quick test_machine_privileged_instruction;
        Alcotest.test_case "capability data access" `Quick test_machine_capability_data_access;
        Alcotest.test_case "capability bounds" `Quick test_machine_capability_bounds;
        Alcotest.test_case "derive + use" `Quick test_machine_cap_derive_and_use;
        Alcotest.test_case "derive requires APL" `Quick test_machine_cap_derive_requires_apl;
        Alcotest.test_case "sync cap dies with frame" `Quick test_machine_sync_cap_dies_with_frame;
        Alcotest.test_case "async cap revocation" `Quick test_machine_async_cap_revocation;
        Alcotest.test_case "capability storage bit" `Quick test_machine_cap_storage_bit;
        Alcotest.test_case "capability page bits" `Quick test_machine_cap_page_bits;
        Alcotest.test_case "cost accounting" `Quick test_machine_costs_accumulate;
        Alcotest.test_case "apl cache counts" `Quick test_machine_apl_cache_counts;
      ] );
    ( "hw.isa",
      [
        Alcotest.test_case "Bne" `Quick test_isa_bne;
        Alcotest.test_case "RdDepth" `Quick test_isa_rddepth;
        Alcotest.test_case "WrFsBase + RdFsBase" `Quick test_isa_fsbase;
        Alcotest.test_case "GetHwTag" `Quick test_isa_gethwtag;
        Alcotest.test_case "CapRevoke" `Quick test_isa_caprevoke;
        Alcotest.test_case "CapClear" `Quick test_isa_capclear;
        Alcotest.test_case "DcsGetBase + DcsSetBase" `Quick test_isa_dcs_base;
        Alcotest.test_case "DcsSwitch + DcsRestore" `Quick test_isa_dcs_switch_restore;
      ] );
    ( "hw.archcmp",
      [
        Alcotest.test_case "switch costs (Table 1)" `Quick test_archcmp_rows;
        Alcotest.test_case "data costs (Table 1)" `Quick test_archcmp_data;
      ] );
  ]
