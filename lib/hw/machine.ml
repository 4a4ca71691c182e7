(* The CODOMs machine: fetch/execute with code-centric protection checks.

   The subject of every access-control decision is the *instruction
   pointer* (Sec. 4.1): the tag of the page the current instruction lives
   on selects the APL used to check data accesses and cross-domain control
   transfers.  Crossing into another domain is just a jump; the effective
   key set and privilege level change implicitly, which is why domain
   switches cost no more than the branch itself (Table 1).

   Timing: every instruction charges a calibrated latency (Isa.cost) to the
   executing context, attributed to a Breakdown category chosen per domain
   tag; protection checks themselves are free, matching the paper's
   simulation result that they run in parallel with the pipeline. *)

module Costs = Dipc_sim.Costs
module Breakdown = Dipc_sim.Breakdown
module Trace = Dipc_sim.Trace

let apl_cache_refill_cost = 250.0 (* exception + software cache refill *)

(* One unit of a superblock: a straight-line body (compiled to
   direct-threaded closures over the context), an optional *chained*
   terminator, and one speculated successor.  Control flow whose target
   is a translation-time constant chains statically: direct [Jmp],
   direct [Call], and conditional branches (speculated backward-taken /
   forward-fall-through, the classic static heuristic).  [Syscall],
   [Trap] and [Halt] always end the chain — they run foreign code or
   stop the machine.

   [u_next] is the speculated successor pc and [u_next_idx] its unit
   index within the same superblock (-1 = planned chain end: the
   dispatcher takes over).  A [u_next_idx] pointing *backward* closes a
   loop inside the superblock, so a hot loop executes with no cache
   lookups at all.  [u_tag]/[u_priv] record the domain view the unit
   was translated under; the junction re-checks them after the
   transfer check because [Page_table.retag]/[set_protection] mutate
   pages in place without bumping the table generation.

   The dynamic transfers chain through predictors.  [u_dyn] classifies
   the terminator's junction: [Dyn_ret] consults the per-machine
   return-address stack, [Dyn_ic] a per-site monomorphic inline cache
   on [Jmpr]/[Callr].  [u_cont_idx] is the unit index of a [Call]/
   [Callr]'s return continuation within the same superblock (-1 if it
   was not materialised under the unit budget): the terminator pushes
   it onto the RAS so the matching [Ret] can chain straight back. *)
type sunit = {
  u_pc : int;
  u_tag : int;
  u_priv : bool;
  u_len : int;
  u_code : (ctx -> unit) array;  (* direct-threaded body *)
  u_costs : float array;
  u_term : Isa.instr option;  (* chained terminator, if any *)
  u_term_code : ctx -> unit;  (* its compiled form (no-op when None) *)
  u_term_pc : int;
  u_term_cost : float;
  u_next : int;
  u_next_idx : int;
  u_dyn : dyn;  (* dynamic-junction kind of the chained terminator *)
  mutable u_cont_idx : int;
      (* call-return continuation unit (RAS prediction), -1 = none;
         mutable only because continuations are resolved after every
         unit of the superblock has been built *)
}

and dyn = Dyn_none | Dyn_ret | Dyn_ic of ic

(* A monomorphic inline cache on one [Jmpr]/[Callr] site: the last
   observed target pc and (when warm) the superblock it chained into.
   [ic_sb] is revalidated against the live tag/priv view and the
   generation counters on every consult — a stale entry is refilled
   from the machine-wide cache or falls back to the dispatcher. *)
and ic = { mutable ic_pc : int; mutable ic_sb : superblock option }

and superblock = {
  s_pc : int;
  s_tag : int;
  s_priv : bool;
  s_units : sunit array;
  s_code_gen : int;
  s_pt_gen : int;
  s_apl_gen : int;
      (* No APL-cache generation guard: the cache is per-context while
         superblocks are shared machine-wide, and bodies and junctions
         consult APL-cache state live. *)
  s_entry : ctx -> unit;
      (* The reference step (minus the transfer check) of an entry
         instruction that cannot chain — Halt, Syscall, Trap or an
         unfetchable slot — compiled once so a warm dispatch onto it
         allocates nothing; a no-op when the entry unit chains. *)
}

and ctx = {
  id : int;
  regs : int array;
  cregs : Capability.t option array;
  mutable pc : int;
  mutable cur_tag : int;
  mutable cur_page : int; (* page of the last fetched instruction *)
  mutable priv : bool; (* privileged-capability bit of that page *)
  mutable fsbase : int; (* TLS segment base *)
  mutable tp : int; (* per-thread kernel struct pointer (gs-like) *)
  dcs : Dcs.t;
  mutable depth : int; (* call depth, for synchronous capability scope *)
  mutable epochs : int array; (* frame epoch per depth *)
  mutable cost : float; (* accumulated ns *)
  mutable instret : int;
  breakdown : Breakdown.t;
  apl_cache : Apl_cache.t;
  mutable halted : bool;
}

type t = {
  page_table : Page_table.t;
  apl : Apl.t;
  mem : Memory.t;
  revocation : Capability.Revocation.table;
  mutable strict_apl_cache : bool;
  mutable on_syscall : (ctx -> int -> unit) option;
  mutable attr_of_tag : int -> Breakdown.category;
  mutable next_ctx_id : int;
  mutable tracer : Trace.t;
  tlb_pages : int array; (* direct-mapped translation cache: page per way *)
  tlb_entries : Page_table.page array;
  mutable tlb_gen : int;
      (* {!Page_table.generation} the cache was filled at; a mismatch
         invalidates every way at once *)
  mutable inject : Dipc_sim.Inject.t option;
      (* Fault injector consulted at domain crossings; [None] keeps the
         crossing path exactly as-is. *)
  mutable block_cache : bool;
      (* [run] dispatches through superblocks when true (and the tracer
         is off and no injector is installed); false forces the
         reference stepper throughout — the --no-block-cache escape
         hatch, and the oracle the dispatch-invariance checks compare
         against. *)
  sblocks : (int, superblock) Hashtbl.t;
      (* superblock cache, keyed by entry pc; machine-wide (shared by
         every context) so [pretranslate] can warm it before any thread
         exists *)
  ras_pc : int array;
      (* The return-address stack: a fixed circular buffer of predicted
         return continuations (pc, superblock, unit index), pushed by
         chained Call/Callr terminators and popped by chained Rets.
         Machine-wide like [sblocks]: a context switch between push and
         pop merely mispredicts (a counted side exit), never diverges —
         every prediction is validated against the live pc, tag/priv
         and generation counters before it is chained. *)
  ras_sb : superblock array;
      (* [ras_dummy] marks an empty slot: its generation fields are -1,
         which the pop-side liveness guard can never match, so no
         separate occupancy test (or per-push [Some] allocation) is
         needed on the hot path *)
  ras_uidx : int array;
  mutable ras_top : int;  (* next push slot *)
  mutable ras_len : int;  (* live entries (overflow drops the oldest) *)
  mutable ctr_block_entries : int;
      (* deterministic perf counters: translated-body entries (one per
         superblock unit entered)... *)
  mutable ctr_sb_hits : int;  (* ...warm superblock dispatches... *)
  mutable ctr_sb_translations : int;  (* ...superblocks (re)translated... *)
  mutable ctr_side_exits : int;
      (* ...and mid-chain exits: speculation misses, junction tag/priv
         guard failures, and dynamic junctions (Ret/Jmpr/Callr) that
         failed to chain.  Pure functions of the simulated execution —
         identical at any --jobs — and never part of any
         digest (they are path-dependent by design: the reference
         interpreter reports zeros). *)
  mutable ctr_ras_hits : int;
      (* chained Rets predicted by the return-address stack... *)
  mutable ctr_ras_misses : int;
      (* ...and chained Rets that fell back to the dispatcher
         (mispredict, under/overflow, cross-crossing, stale target);
         every miss is also a side exit *)
  mutable ctr_ic_hits : int;
      (* chained Jmpr/Callr sites whose inline cache re-matched... *)
  mutable ctr_ic_misses : int;
      (* ...and those that fell back to dispatch (polymorphic target,
         cold cache, stale superblock); every miss is also a side
         exit *)
  mutable posture : Fault.posture;
      (* Enforcement posture for authorization faults: Strict raises
         (the default), Audit counts + traces the would-be fault and
         lets the operation proceed, Permissive proceeds silently.
         Structural faults raise under every posture. *)
  mutable audited_faults : int;
      (* Authorization faults downgraded by the Audit posture. *)
}

exception Out_of_fuel

(* Process-wide default for [t.block_cache], sampled by [create]:
   experiment code builds machines internally, so the CLI escape hatch
   flips this before any machine exists.  Atomic because the PR 4 runner
   creates machines from several domains. *)
let default_block_cache = Atomic.make true

let set_default_block_cache v = Atomic.set default_block_cache v

(* Return-address stack capacity; a power of two so push/pop wrap with a
   mask.  64 comfortably covers the deepest call towers in the suite —
   deeper recursion degrades to mispredicted (reference-path) returns,
   never to wrong execution. *)
let ras_capacity = 64

(* Never chained: generation counters only count up from 0, so the -1s
   fail the pop-side liveness guard before [s_units] is ever touched. *)
let ras_dummy : superblock =
  {
    s_pc = -1;
    s_tag = -1;
    s_priv = false;
    s_units = [||];
    s_code_gen = -1;
    s_pt_gen = -1;
    s_apl_gen = -1;
    s_entry = ignore;
  }

(* Never returned: [tlb_pages] entries start at -1, which no address
   maps to. *)
let tlb_dummy : Page_table.page =
  {
    Page_table.tag = -1;
    readable = false;
    writable = false;
    executable = false;
    priv_cap = false;
    cap_store = false;
  }

let create () =
  {
    page_table = Page_table.create ();
    apl = Apl.create ();
    mem = Memory.create ();
    revocation = Capability.Revocation.create ();
    strict_apl_cache = false;
    on_syscall = None;
    attr_of_tag = (fun _ -> Breakdown.User_code);
    next_ctx_id = 0;
    tracer = Trace.null;
    tlb_pages = Array.make Layout.cache_ways (-1);
    tlb_entries = Array.make Layout.cache_ways tlb_dummy;
    tlb_gen = -1;
    inject = None;
    block_cache = Atomic.get default_block_cache;
    sblocks = Hashtbl.create 64;
    ras_pc = Array.make ras_capacity 0;
    ras_sb = Array.make ras_capacity ras_dummy;
    ras_uidx = Array.make ras_capacity 0;
    ras_top = 0;
    ras_len = 0;
    ctr_block_entries = 0;
    ctr_sb_hits = 0;
    ctr_sb_translations = 0;
    ctr_side_exits = 0;
    ctr_ras_hits = 0;
    ctr_ras_misses = 0;
    ctr_ic_hits = 0;
    ctr_ic_misses = 0;
    posture = Fault.get_default_posture ();
    audited_faults = 0;
  }

let set_block_cache m v = m.block_cache <- v

let set_posture m p = m.posture <- p

(* Page-table lookup through the direct-mapped translation cache:
   fetch/load/store into a warm page skips the page-table Hashtbl, and
   distinct hot pages (code, data, stack) each keep their own way
   instead of evicting one another.  Entries are invalidated by the
   table's generation counter (map/unmap) — a generation bump flushes
   the whole cache on the next miss — and in-place page mutation is
   observed through the shared record. *)
let find_page m ~pc addr =
  let page = Layout.page_of addr in
  let way = Layout.cache_way page in
  if Array.unsafe_get m.tlb_pages way = page
     && Page_table.generation m.page_table = m.tlb_gen
  then Array.unsafe_get m.tlb_entries way
  else begin
    let entry = Page_table.find_exn m.page_table ~pc addr in
    let gen = Page_table.generation m.page_table in
    if gen <> m.tlb_gen then begin
      Array.fill m.tlb_pages 0 Layout.cache_ways (-1);
      m.tlb_gen <- gen
    end;
    m.tlb_pages.(way) <- page;
    m.tlb_entries.(way) <- entry;
    entry
  end

let set_syscall_handler m f = m.on_syscall <- Some f

let set_trace m tracer = m.tracer <- tracer

let set_inject m inj = m.inject <- inj

let set_attribution m f = m.attr_of_tag <- f

let new_ctx ?(dcs_capacity = Dcs.default_capacity) m ~pc ~sp_value =
  let id = m.next_ctx_id in
  m.next_ctx_id <- m.next_ctx_id + 1;
  let regs = Array.make Isa.num_regs 0 in
  regs.(Isa.sp) <- sp_value;
  {
    id;
    regs;
    cregs = Array.make Isa.num_cregs None;
    pc;
    cur_tag = -1;
    cur_page = -1;
    priv = false;
    fsbase = 0;
    tp = 0;
    dcs = Dcs.create ~capacity:dcs_capacity ();
    depth = 0;
    epochs = Array.make 64 0;
    cost = 0.;
    instret = 0;
    breakdown = Breakdown.create ();
    apl_cache = Apl_cache.create ();
    halted = false;
  }

let charge m ctx ns =
  ctx.cost <- ctx.cost +. ns;
  let cat = m.attr_of_tag ctx.cur_tag in
  Breakdown.charge ctx.breakdown cat ns;
  if Trace.enabled m.tracer then
    Trace.emit m.tracer ~ts:ctx.cost ~tid:ctx.id ~tag:ctx.cur_tag ~cat ~dur:ns
      Trace.Charge

let charge_as m ctx category ns =
  ctx.cost <- ctx.cost +. ns;
  Breakdown.charge ctx.breakdown category ns;
  if Trace.enabled m.tracer then
    Trace.emit m.tracer ~ts:ctx.cost ~tid:ctx.id ~tag:ctx.cur_tag ~cat:category
      ~dur:ns Trace.Charge

(* Posture-mediated denial.  Strict raises (the pre-posture behaviour,
   byte-identical digests); Audit counts the would-be fault — and, when
   tracing, emits the Fault event the strict machine would have — then
   lets the caller continue; Permissive continues silently.  Structural
   faults ([Fault.downgradeable] = false) raise under every posture. *)
let deny m ctx ?addr ~pc kind =
  if m.posture = Fault.Strict || not (Fault.downgradeable kind) then
    Fault.raise_fault ?addr ~pc kind
  else if m.posture = Fault.Audit then begin
    m.audited_faults <- m.audited_faults + 1;
    if Trace.enabled m.tracer then
      Trace.emit m.tracer ~ts:ctx.cost ~tid:ctx.id ~tag:ctx.cur_tag ~arg:pc
        Trace.Fault
  end

(* --- capability validity (Sec. 4.2) --- *)

let cap_valid m ctx (cap : Capability.t) =
  match cap.scope with
  | Capability.Synchronous { thread; depth; epoch } ->
      thread = ctx.id && depth <= ctx.depth && ctx.epochs.(depth) = epoch
  | Capability.Asynchronous { owner_tag; counter; value } ->
      Capability.Revocation.value m.revocation ~tag:owner_tag ~counter = value

(* --- data access checks --- *)

let page_allows (page : Page_table.page) (perm : Perm.t) =
  match perm with
  | Perm.Write | Perm.Owner -> page.writable
  | Perm.Read -> page.readable
  | Perm.Call | Perm.Nil -> page.readable

(* Audit trail behind a granted (or posture-downgraded) data access, for
   the checker's isolation invariants.  [Xtag_access] records the
   authority carrying a cross-tag access: 2 = APL, 1 = capability, 3 =
   allowed by a non-strict posture.  Code 0 ("no authority at all") is
   never emitted — the machine denies instead — so its appearance in a
   stream is itself the violation the checker looks for.  A capability
   grant additionally records [Cap_use] with the stamp the capability
   was minted under, which the checker replays against observed
   [Cap_revoke] events (revocation completeness).  [creg] is the
   granting capability register, or -1. *)
let trace_cap_use m ctx creg =
  if creg >= 0 then
    match ctx.cregs.(creg) with
    | Some
        {
          Capability.scope = Capability.Asynchronous { owner_tag; counter; value };
          _;
        } ->
        Trace.emit m.tracer ~ts:ctx.cost ~cpu:value ~tid:ctx.id ~tag:owner_tag
          ~arg:counter Trace.Cap_use
    | Some _ | None -> ()

let trace_authority m ctx ~(page : Page_table.page) ~apl_ok ~creg =
  if page.tag <> ctx.cur_tag then begin
    let code = if apl_ok then 2 else if creg >= 0 then 1 else 3 in
    Trace.emit m.tracer ~ts:ctx.cost ~cpu:code ~tid:ctx.id ~tag:page.tag
      ~arg:ctx.cur_tag Trace.Xtag_access
  end;
  trace_cap_use m ctx creg

(* The first capability register (from [i] up) holding a valid
   capability that covers [len] bytes at [addr] with [perm], or -1.
   The cheap range and rights tests run before [cap_valid], which may
   consult the revocation table. *)
let rec granting_creg m ctx ~addr ~len ~perm i =
  if i = Isa.num_cregs then -1
  else
    match ctx.cregs.(i) with
    | Some cap
      when Capability.covers cap ~addr ~len
           && Capability.grants cap perm
           && cap_valid m ctx cap ->
        i
    | Some _ | None -> granting_creg m ctx ~addr ~len ~perm (i + 1)

(* CODOMs honors the per-page protection bits (Sec. 4.1): a write to a
   non-writable page is [Write_to_readonly], any other access to a
   non-readable page is a missing permission. *)
let check_page_bits m ctx ~(page : Page_table.page) ~addr ~perm =
  if not (page_allows page perm) then begin
    if Perm.includes perm Perm.Write then
      deny m ctx ~pc:ctx.pc ~addr Fault.Write_to_readonly
    else deny m ctx ~pc:ctx.pc ~addr (Fault.No_permission perm)
  end

(* Check that [ctx] may access [len] bytes at [addr] with [perm]; data
   accesses are satisfied by the APL of the current domain or by any of the
   8 capability registers (Sec. 4.2). *)
let check_data m ctx ~addr ~len ~perm =
  let page = find_page m ~pc:ctx.pc addr in
  if page.cap_store then
    deny m ctx ~pc:ctx.pc ~addr
      (Fault.Cap_storage "regular access to a capability-storage page");
  let apl_perm = Apl.permission m.apl ~src:ctx.cur_tag ~dst:page.tag in
  (* The APL-granted case (every same-domain access) is the hot path:
     it never consults the capability registers. *)
  if Perm.includes apl_perm perm then begin
    if Trace.enabled m.tracer then
      trace_authority m ctx ~page ~apl_ok:true ~creg:(-1)
  end
  else begin
    let creg = granting_creg m ctx ~addr ~len ~perm 0 in
    if creg < 0 then deny m ctx ~pc:ctx.pc ~addr (Fault.No_permission perm);
    if Trace.enabled m.tracer then
      trace_authority m ctx ~page ~apl_ok:false ~creg
  end;
  check_page_bits m ctx ~page ~addr ~perm

let check_cap_page m ctx ~addr ~perm =
  let page = find_page m ~pc:ctx.pc addr in
  if not page.cap_store then
    deny m ctx ~pc:ctx.pc ~addr
      (Fault.Cap_storage "capability access to a regular page");
  let apl_perm = Apl.permission m.apl ~src:ctx.cur_tag ~dst:page.tag in
  let apl_ok = Perm.includes apl_perm perm in
  let creg =
    if apl_ok then -1 else granting_creg m ctx ~addr ~len:Layout.cap_bytes ~perm 0
  in
  if (not apl_ok) && creg < 0 then
    deny m ctx ~pc:ctx.pc ~addr (Fault.No_permission perm);
  if Trace.enabled m.tracer then trace_authority m ctx ~page ~apl_ok ~creg;
  check_page_bits m ctx ~page ~addr ~perm

(* --- control transfer checks (Sec. 4.1) --- *)

(* The capability register carrying the strongest valid capability that
   covers the instruction at [target], if it beats [best]; else -1.
   Ties keep the lowest register. *)
let rec best_transfer_creg m ctx ~target ~best i found =
  if i = Isa.num_cregs then found
  else
    match ctx.cregs.(i) with
    | Some cap
      when Perm.rank cap.perm > Perm.rank best
           && Capability.covers cap ~addr:target ~len:Isa.instr_bytes
           && cap_valid m ctx cap ->
        best_transfer_creg m ctx ~target ~best:cap.perm (i + 1) i
    | Some _ | None -> best_transfer_creg m ctx ~target ~best (i + 1) found

(* Called at fetch whenever the pc lands on a different page than the last
   executed instruction.  [ctx.cur_tag] is still the *source* domain. *)
let check_transfer m ctx target =
  let page = find_page m ~pc:target target in
  if not page.executable then deny m ctx ~pc:target Fault.Exec_violation;
  let new_tag = page.tag in
  if new_tag <> ctx.cur_tag && ctx.cur_tag <> -1 then begin
    let apl_perm = Apl.permission m.apl ~src:ctx.cur_tag ~dst:new_tag in
    let creg = best_transfer_creg m ctx ~target ~best:apl_perm 0 (-1) in
    let best =
      if creg < 0 then apl_perm
      else match ctx.cregs.(creg) with Some cap -> cap.perm | None -> apl_perm
    in
    (match best with
    | Perm.Read | Perm.Write | Perm.Owner -> ()
    | Perm.Call ->
        (* Call permission only enters through aligned entry points. *)
        if not (Layout.is_aligned target Layout.entry_align) then
          deny m ctx ~pc:target Fault.Not_entry_point
    | Perm.Nil -> deny m ctx ~pc:target (Fault.No_permission Perm.Call));
    (* A crossing carried by an asynchronous capability leaves the same
       audit record as a capability-granted data access. *)
    if Trace.enabled m.tracer then begin
      trace_cap_use m ctx creg;
      Trace.emit m.tracer ~ts:ctx.cost ~tid:ctx.id ~tag:new_tag ~arg:ctx.cur_tag
        Trace.Domain_cross
    end;
    (match m.inject with
    | Some inj ->
        (* Injected cold APL cache: the crossing must still succeed, just
           through the (slow) refill path.  Skipped in strict mode, where
           a miss is a fault by configuration, not a perturbation. *)
        if (not m.strict_apl_cache) && Dipc_sim.Inject.apl_flush inj then
          Apl_cache.reset ctx.apl_cache;
        (* Injected capability-register spill/refill around the crossing:
           the register file must survive a clobber-and-restore cycle,
           charged as kernel time. *)
        (match Dipc_sim.Inject.creg_clobber inj with
        | Some cost ->
            let saved = Array.copy ctx.cregs in
            Array.fill ctx.cregs 0 (Array.length ctx.cregs) None;
            Array.blit saved 0 ctx.cregs 0 (Array.length saved);
            charge_as m ctx Breakdown.Kernel cost
        | None -> ())
    | None -> ());
    (* The instruction pointer now originates from the new domain; its APL
       becomes the active one, via the per-thread APL cache. *)
    if Apl_cache.lookup ctx.apl_cache new_tag < 0 then begin
      ignore (Apl_cache.install ctx.apl_cache new_tag);
      if m.strict_apl_cache then
        Fault.raise_fault ~pc:target (Fault.Apl_cache_miss new_tag)
      else charge_as m ctx Breakdown.Kernel apl_cache_refill_cost
    end
  end
  else if ctx.cur_tag = -1 then ignore (Apl_cache.find_or_install ctx.apl_cache new_tag);
  ctx.cur_tag <- new_tag;
  ctx.cur_page <- Layout.page_of target;
  ctx.priv <- page.priv_cap

(* Privileged-instruction gate.  On retirement (priv held, or past a
   posture downgrade) the audit record carries the authority in [cpu]:
   1 = the priv_cap bit, 2 = posture override.  Code 0 ("retired with no
   authority") is never emitted — the checker treats it as a violation. *)
let require_priv m ctx =
  if not ctx.priv then deny m ctx ~pc:ctx.pc Fault.Privilege_required;
  if Trace.enabled m.tracer then
    Trace.emit m.tracer ~ts:ctx.cost
      ~cpu:(if ctx.priv then 1 else 2)
      ~tid:ctx.id ~tag:ctx.cur_tag ~arg:ctx.pc Trace.Priv_op

(* --- frame tracking for synchronous capabilities --- *)

let ensure_epochs ctx depth =
  if depth >= Array.length ctx.epochs then begin
    let fresh = Array.make (2 * (depth + 1)) 0 in
    Array.blit ctx.epochs 0 fresh 0 (Array.length ctx.epochs);
    ctx.epochs <- fresh
  end

let enter_frame ctx =
  ctx.depth <- ctx.depth + 1;
  ensure_epochs ctx ctx.depth

let leave_frame ctx ~pc =
  if ctx.depth <= 0 then Fault.raise_fault ~pc (Fault.Software_trap (-1));
  (* Kill every synchronous capability created in the dying frame. *)
  ctx.epochs.(ctx.depth) <- ctx.epochs.(ctx.depth) + 1;
  ctx.depth <- ctx.depth - 1

(* --- register helpers --- *)

let creg ctx ~pc c =
  match ctx.cregs.(c) with
  | Some cap -> cap
  | None -> Fault.raise_fault ~pc Fault.Cap_invalid

let valid_creg m ctx ~pc c =
  let cap = creg ctx ~pc c in
  if not (cap_valid m ctx cap) then Fault.raise_fault ~pc Fault.Cap_invalid;
  cap

(* Derive a capability for [base,len) from the current domain's APL: every
   page in the range must be accessible with at least [perm]. *)
let derive_from_apl m ctx ~pc ~base ~len ~perm =
  if len <= 0 then Fault.raise_fault ~pc Fault.Cap_invalid;
  let first = Layout.page_of base and last = Layout.page_of (base + len - 1) in
  for p = first to last do
    let addr = p * Layout.page_size in
    let page = find_page m ~pc addr in
    let granted = Apl.permission m.apl ~src:ctx.cur_tag ~dst:page.tag in
    if not (Perm.includes granted perm) then
      deny m ctx ~pc ~addr (Fault.No_permission perm)
  done;
  {
    Capability.base;
    length = len;
    perm;
    scope =
      Capability.Synchronous
        { thread = ctx.id; depth = ctx.depth; epoch = ctx.epochs.(ctx.depth) };
  }

(* --- the instruction semantics --- *)

let word = Layout.word_size

(* Call/Callr: push the return address [next] onto the data stack and
   open a frame. *)
let push_return m ctx ~next =
  let new_sp = ctx.regs.(Isa.sp) - word in
  check_data m ctx ~addr:new_sp ~len:word ~perm:Perm.Write;
  Memory.store_word m.mem new_sp next;
  ctx.regs.(Isa.sp) <- new_sp;
  enter_frame ctx

let trace_dcs m ctx kind =
  if Trace.enabled m.tracer then
    Trace.emit m.tracer ~ts:ctx.cost ~tid:ctx.id ~tag:ctx.cur_tag
      ~arg:(Dcs.depth ctx.dcs) kind

(* The one definition of what every instruction does.  [compile_instr]
   specializes one already-fetched instruction into a closure over the
   context: operands, its own address [pc] and its fall-through
   successor [next] are captured up front, so the hot constructors pay
   no decode at run time.  The reference stepper compiles and applies
   one instruction per step; the superblock compiler compiles each
   instruction once per translation and replays the closure.

   A closure runs after its instruction was fetched and charged.  It
   keeps [ctx.pc] at the instruction's own address while its checks run
   (so faults and posture denials carry that pc) and advances it last.
   Tracer checks read the mutable [m.tracer] at run time. *)
let compile_instr m instr ~pc ~next : ctx -> unit =
  match instr with
  | Isa.Nop -> fun ctx -> ctx.pc <- next
  | Isa.Halt -> fun ctx -> ctx.halted <- true
  | Isa.Trap n -> fun _ -> Fault.raise_fault ~pc (Fault.Software_trap n)
  | Isa.Syscall n -> (
      fun ctx ->
        if Trace.enabled m.tracer then
          Trace.emit m.tracer ~ts:ctx.cost ~tid:ctx.id ~tag:ctx.cur_tag ~arg:n
            Trace.Syscall;
        charge_as m ctx Breakdown.Syscall_entry Costs.syscall_entry_exit;
        charge_as m ctx Breakdown.Dispatch Costs.syscall_dispatch;
        match m.on_syscall with
        | Some handler ->
            handler ctx n;
            ctx.pc <- next
        | None -> Fault.raise_fault ~pc (Fault.Software_trap (1000 + n)))
  | Isa.Jmp t -> fun ctx -> ctx.pc <- t
  | Isa.Jmpr r -> fun ctx -> ctx.pc <- ctx.regs.(r)
  | Isa.Call target ->
      fun ctx ->
        push_return m ctx ~next;
        ctx.pc <- target
  | Isa.Callr r ->
      fun ctx ->
        let target = ctx.regs.(r) in
        push_return m ctx ~next;
        ctx.pc <- target
  | Isa.Ret ->
      fun ctx ->
        let sp_value = ctx.regs.(Isa.sp) in
        check_data m ctx ~addr:sp_value ~len:word ~perm:Perm.Read;
        let target = Memory.load_word m.mem sp_value in
        ctx.regs.(Isa.sp) <- sp_value + word;
        (* The return transfer is checked with the *returning* frame's
           rights: a synchronous capability created in this frame (e.g.
           the proxy's return capability, Sec. 5.2.3/P3) must still
           satisfy the check even though the frame dies on return. *)
        check_transfer m ctx target;
        leave_frame ctx ~pc;
        ctx.pc <- target
  | Isa.Beq (a, b, t) ->
      fun ctx -> ctx.pc <- (if ctx.regs.(a) = ctx.regs.(b) then t else next)
  | Isa.Bne (a, b, t) ->
      fun ctx -> ctx.pc <- (if ctx.regs.(a) <> ctx.regs.(b) then t else next)
  | Isa.Blt (a, b, t) ->
      fun ctx -> ctx.pc <- (if ctx.regs.(a) < ctx.regs.(b) then t else next)
  | Isa.Bge (a, b, t) ->
      fun ctx -> ctx.pc <- (if ctx.regs.(a) >= ctx.regs.(b) then t else next)
  | Isa.Beqz (a, t) ->
      fun ctx -> ctx.pc <- (if ctx.regs.(a) = 0 then t else next)
  | Isa.Bnez (a, t) ->
      fun ctx -> ctx.pc <- (if ctx.regs.(a) <> 0 then t else next)
  | Isa.Const (r, v) ->
      fun ctx ->
        ctx.regs.(r) <- v;
        ctx.pc <- next
  | Isa.Mov (d, s) ->
      fun ctx ->
        ctx.regs.(d) <- ctx.regs.(s);
        ctx.pc <- next
  | Isa.Add (d, a, b) ->
      fun ctx ->
        ctx.regs.(d) <- ctx.regs.(a) + ctx.regs.(b);
        ctx.pc <- next
  | Isa.Addi (d, a, i) ->
      fun ctx ->
        ctx.regs.(d) <- ctx.regs.(a) + i;
        ctx.pc <- next
  | Isa.Sub (d, a, b) ->
      fun ctx ->
        ctx.regs.(d) <- ctx.regs.(a) - ctx.regs.(b);
        ctx.pc <- next
  | Isa.Mul (d, a, b) ->
      fun ctx ->
        ctx.regs.(d) <- ctx.regs.(a) * ctx.regs.(b);
        ctx.pc <- next
  | Isa.Shli (d, a, i) ->
      fun ctx ->
        ctx.regs.(d) <- ctx.regs.(a) lsl i;
        ctx.pc <- next
  | Isa.Load (d, b, o) ->
      fun ctx ->
        let addr = ctx.regs.(b) + o in
        check_data m ctx ~addr ~len:word ~perm:Perm.Read;
        ctx.regs.(d) <- Memory.load_word m.mem addr;
        ctx.pc <- next
  | Isa.Store (b, o, s) ->
      fun ctx ->
        let addr = ctx.regs.(b) + o in
        check_data m ctx ~addr ~len:word ~perm:Perm.Write;
        Memory.store_word m.mem addr ctx.regs.(s);
        ctx.pc <- next
  | Isa.RdTp r ->
      fun ctx ->
        require_priv m ctx;
        ctx.regs.(r) <- ctx.tp;
        ctx.pc <- next
  | Isa.RdDepth r ->
      fun ctx ->
        require_priv m ctx;
        ctx.regs.(r) <- ctx.depth;
        ctx.pc <- next
  | Isa.WrFsBase r ->
      fun ctx ->
        ctx.fsbase <- ctx.regs.(r);
        ctx.pc <- next
  | Isa.RdFsBase r ->
      fun ctx ->
        ctx.regs.(r) <- ctx.fsbase;
        ctx.pc <- next
  | Isa.GetHwTag (d, s) ->
      fun ctx ->
        require_priv m ctx;
        let tag = ctx.regs.(s) in
        let hw = Apl_cache.lookup ctx.apl_cache tag in
        if hw >= 0 then ctx.regs.(d) <- hw
        else if m.strict_apl_cache then
          Fault.raise_fault ~pc (Fault.Apl_cache_miss tag)
        else begin
          charge_as m ctx Breakdown.Kernel apl_cache_refill_cost;
          ctx.regs.(d) <- Apl_cache.install ctx.apl_cache tag
        end;
        ctx.pc <- next
  | Isa.CapAplDerive (c, rb, rl, perm) ->
      fun ctx ->
        let cap =
          derive_from_apl m ctx ~pc ~base:ctx.regs.(rb) ~len:ctx.regs.(rl) ~perm
        in
        ctx.cregs.(c) <- Some cap;
        ctx.pc <- next
  | Isa.CapRestrict (cd, cs, rb, rl, perm) -> (
      fun ctx ->
        let src = valid_creg m ctx ~pc cs in
        match
          Capability.restrict src ~base:ctx.regs.(rb) ~length:ctx.regs.(rl)
            ~perm
        with
        | Ok cap ->
            ctx.cregs.(cd) <- Some cap;
            ctx.pc <- next
        | Error _ -> Fault.raise_fault ~pc Fault.Cap_invalid)
  | Isa.CapAsync (cd, cs, rctr) ->
      fun ctx ->
        let src = valid_creg m ctx ~pc cs in
        let counter = ctx.regs.(rctr) in
        let value =
          Capability.Revocation.value m.revocation ~tag:ctx.cur_tag ~counter
        in
        ctx.cregs.(cd) <-
          Some
            {
              src with
              scope =
                Capability.Asynchronous
                  { owner_tag = ctx.cur_tag; counter; value };
            };
        ctx.pc <- next
  | Isa.CapRevoke rctr ->
      fun ctx ->
        let counter = ctx.regs.(rctr) in
        Capability.Revocation.revoke m.revocation ~tag:ctx.cur_tag ~counter;
        if Trace.enabled m.tracer then
          Trace.emit m.tracer ~ts:ctx.cost
            ~cpu:
              (Capability.Revocation.value m.revocation ~tag:ctx.cur_tag
                 ~counter)
            ~tid:ctx.id ~tag:ctx.cur_tag ~arg:counter Trace.Cap_revoke;
        ctx.pc <- next
  | Isa.CapClear c ->
      fun ctx ->
        ctx.cregs.(c) <- None;
        ctx.pc <- next
  | Isa.CapPush c ->
      fun ctx ->
        Dcs.push ctx.dcs ~pc (valid_creg m ctx ~pc c);
        trace_dcs m ctx Trace.Dcs_push;
        ctx.pc <- next
  | Isa.CapPop c ->
      fun ctx ->
        ctx.cregs.(c) <- Some (Dcs.pop ctx.dcs ~pc);
        trace_dcs m ctx Trace.Dcs_pop;
        ctx.pc <- next
  | Isa.CapLoad (c, rb, o) -> (
      fun ctx ->
        let addr = ctx.regs.(rb) + o in
        check_cap_page m ctx ~addr ~perm:Perm.Read;
        match Memory.load_cap m.mem addr with
        | Some _ as cell ->
            ctx.cregs.(c) <- cell;
            ctx.pc <- next
        | None -> Fault.raise_fault ~pc ~addr Fault.Cap_invalid)
  | Isa.CapStore (rb, o, c) ->
      fun ctx ->
        let addr = ctx.regs.(rb) + o in
        check_cap_page m ctx ~addr ~perm:Perm.Write;
        Memory.store_cap m.mem addr (valid_creg m ctx ~pc c);
        ctx.pc <- next
  | Isa.DcsGetTop r ->
      fun ctx ->
        ctx.regs.(r) <- Dcs.depth ctx.dcs;
        ctx.pc <- next
  | Isa.DcsGetBase r ->
      fun ctx ->
        require_priv m ctx;
        ctx.regs.(r) <- Dcs.base ctx.dcs;
        ctx.pc <- next
  | Isa.DcsSetBase r ->
      fun ctx ->
        require_priv m ctx;
        Dcs.set_base ctx.dcs ~pc ctx.regs.(r);
        ctx.pc <- next
  | Isa.DcsSwitch r ->
      fun ctx ->
        require_priv m ctx;
        Dcs.switch ctx.dcs ~pc ~args:ctx.regs.(r);
        trace_dcs m ctx Trace.Dcs_adjust;
        ctx.pc <- next
  | Isa.DcsRestore r ->
      fun ctx ->
        require_priv m ctx;
        Dcs.restore ctx.dcs ~pc ~rets:ctx.regs.(r);
        trace_dcs m ctx Trace.Dcs_adjust;
        ctx.pc <- next

(* --- the reference stepper --- *)

(* The dispatch oracle: fetch, transfer check, charge, then compile and
   apply the instruction — no caching, chaining or prediction. *)
let step_unlogged m ctx =
  if ctx.halted then `Halted
  else begin
    let pc = ctx.pc in
    if Layout.page_of pc <> ctx.cur_page then check_transfer m ctx pc;
    let instr =
      match Memory.fetch m.mem pc with
      | Some i -> i
      | None -> Fault.raise_fault ~pc Fault.Bad_instruction
    in
    ctx.instret <- ctx.instret + 1;
    charge m ctx (Isa.cost instr);
    compile_instr m instr ~pc ~next:(pc + Isa.instr_bytes) ctx;
    if ctx.halted then `Halted else `Running
  end

let step m ctx =
  try step_unlogged m ctx
  with Fault.Fault f as exn ->
    if Trace.enabled m.tracer then
      Trace.emit m.tracer ~ts:ctx.cost ~tid:ctx.id ~tag:ctx.cur_tag
        ~arg:f.Fault.pc Trace.Fault;
    raise exn

(* --- superblock dispatch (direct-threaded trace compiler) --- *)

(* A terminator ends a unit's straight-line body: anything that can
   leave the pc+4 successor chain (or stop execution). *)
let is_terminator = function
  | Isa.Halt | Isa.Trap _ | Isa.Syscall _ | Isa.Jmp _ | Isa.Jmpr _
  | Isa.Call _ | Isa.Callr _ | Isa.Ret | Isa.Beq _ | Isa.Bne _ | Isa.Blt _
  | Isa.Bge _ | Isa.Beqz _ | Isa.Bnez _ ->
      true
  | _ -> false

(* The speculated successor of a chainable terminator at [pc], or None
   for the unchainable ones (indirect targets, Syscall/Trap/Halt/Ret).
   Conditional branches speculate backward-taken / forward-fall-through
   — loops chain onto themselves, forward guards chain onto the common
   path, and the other arm side-exits at run time. *)
let chain_target ~pc = function
  | Isa.Jmp t | Isa.Call t -> Some t
  | Isa.Beq (_, _, t)
  | Isa.Bne (_, _, t)
  | Isa.Blt (_, _, t)
  | Isa.Bge (_, _, t) ->
      Some (if t <= pc then t else pc + Isa.instr_bytes)
  | Isa.Beqz (_, t) | Isa.Bnez (_, t) ->
      Some (if t <= pc then t else pc + Isa.instr_bytes)
  | _ -> None

let max_superblock_units = 32

(* The reference step ([step_unlogged]) of the instruction at [pc],
   minus the transfer check, as one closure: a superblock keeps it for
   an entry instruction that cannot chain.  The fetch happens when the
   closure is built, but an unfetchable slot faults only when the
   closure runs, after the dispatcher's transfer check. *)
let compile_step m ~pc : ctx -> unit =
  match Memory.fetch m.mem pc with
  | None -> fun _ -> Fault.raise_fault ~pc Fault.Bad_instruction
  | Some instr ->
      let code = compile_instr m instr ~pc ~next:(pc + Isa.instr_bytes) in
      let cost = Isa.cost instr in
      fun ctx ->
        ctx.instret <- ctx.instret + 1;
        charge m ctx cost;
        code ctx

(* Translate the superblock entered at [pc] under domain view
   [tag]/[priv]: follow the speculated chain — body, chained
   terminator, successor — until it reaches an unchainable terminator,
   an unmapped/non-executable successor, a pc already in this
   superblock (closing a loop), or the unit limit.  Pure reads plus
   closure construction: [Memory.fetch] and [Page_table.find] are what
   the reference path performs anyway, so translation is invisible to
   digests.  Successor domain views are read from the page table here
   and re-checked at the junction at run time (pages mutate in place).

   Dynamic transfers (Ret, Jmpr, Callr) are chained as terminators with
   a [Dyn_ret]/[Dyn_ic] junction, and every Call/Callr additionally
   enqueues its return continuation as a secondary chain seed so the
   matching Ret has a unit to land on.  Seeds are processed FIFO after
   the primary chain ends, under the same unit budget — the primary
   chain does not depend on them, and a continuation that does not fit
   simply leaves [u_cont_idx] at -1 (the Ret then mispredicts to the
   dispatcher, never executes wrong code). *)
let translate_superblock m ~pc ~tag ~priv =
  let units = ref [] in
  let count = ref 0 in
  let index = Hashtbl.create 8 in
  let conts = Queue.create () in
  let rec next_seed () =
    match Queue.take_opt conts with
    | None -> None
    | Some ((spc, _, _) as seed) ->
        if Hashtbl.mem index spc || !count >= max_superblock_units then
          next_seed ()
        else Some seed
  in
  let cur = ref (Some (pc, tag, priv)) in
  while !cur <> None do
    let upc, utag, upriv =
      match !cur with Some c -> c | None -> assert false
    in
    Hashtbl.replace index upc !count;
    (* straight-line body: same page, every slot fetchable, no
       terminators *)
    let page0 = Layout.page_of upc in
    let rev = ref [] in
    let n = ref 0 in
    let p = ref upc in
    let stop = ref false in
    while not !stop do
      if Layout.page_of !p <> page0 then stop := true
      else
        match Memory.fetch m.mem !p with
        | Some i when not (is_terminator i) ->
            rev := i :: !rev;
            incr n;
            p := !p + Isa.instr_bytes
        | Some _ | None -> stop := true
    done;
    let instrs = Array.of_list (List.rev !rev) in
    let term_pc = !p in
    let term, succ, dyn =
      if Layout.page_of term_pc <> page0 then
        (* the body ran off the page end: a fall-through junction — no
           terminator, the successor is the next page's first slot *)
        (None, Some term_pc, Dyn_none)
      else
        match Memory.fetch m.mem term_pc with
        | None -> (None, None, Dyn_none)
        | Some i -> (
            match chain_target ~pc:term_pc i with
            | Some t -> (Some i, Some t, Dyn_none)
            | None -> (
                match i with
                | Isa.Ret -> (Some i, None, Dyn_ret)
                | Isa.Jmpr _ | Isa.Callr _ ->
                    (Some i, None, Dyn_ic { ic_pc = -1; ic_sb = None })
                | _ -> (None, None, Dyn_none)))
    in
    (* A call's return continuation becomes a secondary seed: translated
       under the *caller's* view, which is exactly the view a Ret lands
       back in — the RAS junction re-validates the landing unit's
       (tag, priv) against the live state before chaining, so even a
       retagged continuation can never run stale. *)
    (match term with
    | Some (Isa.Call _ | Isa.Callr _) -> (
        let cpc = term_pc + Isa.instr_bytes in
        if Layout.page_of cpc = page0 then Queue.add (cpc, utag, upriv) conts
        else
          match Page_table.find m.page_table cpc with
          | Some page when page.Page_table.executable ->
              Queue.add
                (cpc, page.Page_table.tag, page.Page_table.priv_cap)
                conts
          | Some _ | None -> ())
    | _ -> ());
    let u_next, u_next_idx, continue_at =
      match succ with
      | None -> (-1, -1, None)
      | Some next_pc -> (
          match Hashtbl.find_opt index next_pc with
          | Some idx -> (next_pc, idx, None) (* loop closed *)
          | None ->
              if !count + 1 >= max_superblock_units then (-1, -1, None)
              else (
                match Page_table.find m.page_table next_pc with
                | Some page when page.Page_table.executable ->
                    let ntag, npriv =
                      if Layout.page_of next_pc = page0 then (utag, upriv)
                      else (page.Page_table.tag, page.Page_table.priv_cap)
                    in
                    (next_pc, !count + 1, Some (next_pc, ntag, npriv))
                | Some _ | None -> (-1, -1, None)))
    in
    let u =
      {
        u_pc = upc;
        u_tag = utag;
        u_priv = upriv;
        u_len = !n;
        u_code =
          Array.mapi
            (fun i instr ->
              let ipc = upc + (i * Isa.instr_bytes) in
              compile_instr m instr ~pc:ipc ~next:(ipc + Isa.instr_bytes))
            instrs;
        u_costs = Array.map Isa.cost instrs;
        u_term = term;
        u_term_code =
          (match term with
          | Some i ->
              compile_instr m i ~pc:term_pc ~next:(term_pc + Isa.instr_bytes)
          | None -> ignore);
        u_term_pc = term_pc;
        u_term_cost = (match term with Some i -> Isa.cost i | None -> 0.);
        u_next;
        u_next_idx;
        u_dyn = dyn;
        u_cont_idx = -1;
      }
    in
    units := u :: !units;
    incr count;
    cur := (match continue_at with Some _ as c -> c | None -> next_seed ())
  done;
  let s_units = Array.of_list (List.rev !units) in
  (* Resolve call continuations now that every unit exists: a seed may
     have closed onto a unit the primary chain already built, or been
     dropped by the budget (u_cont_idx stays -1). *)
  Array.iter
    (fun u ->
      match u.u_term with
      | Some (Isa.Call _ | Isa.Callr _) -> (
          match Hashtbl.find_opt index (u.u_term_pc + Isa.instr_bytes) with
          | Some i -> u.u_cont_idx <- i
          | None -> ())
      | _ -> ())
    s_units;
  let u0 = s_units.(0) in
  {
    s_pc = pc;
    s_tag = tag;
    s_priv = priv;
    s_units;
    s_code_gen = Memory.code_generation m.mem;
    s_pt_gen = Page_table.generation m.page_table;
    s_apl_gen = Apl.generation m.apl;
    s_entry =
      (if u0.u_len = 0 && u0.u_term = None then compile_step m ~pc else ignore);
  }

(* Generation validity shared by the dispatcher probe, the RAS pop and
   the inline-cache consult: stale means some code placement, table
   change or APL mutation happened after translation. *)
let sb_live m sb =
  sb.s_code_gen = Memory.code_generation m.mem
  && sb.s_pt_gen = Page_table.generation m.page_table
  && sb.s_apl_gen = Apl.generation m.apl

let find_superblock m ctx pc =
  match Hashtbl.find m.sblocks pc with
  | sb when sb.s_tag = ctx.cur_tag && sb.s_priv = ctx.priv && sb_live m sb ->
      m.ctr_sb_hits <- m.ctr_sb_hits + 1;
      sb
  | _ | (exception Not_found) ->
      let sb = translate_superblock m ~pc ~tag:ctx.cur_tag ~priv:ctx.priv in
      m.ctr_sb_translations <- m.ctr_sb_translations + 1;
      Hashtbl.replace m.sblocks pc sb;
      sb

(* Push one predicted return continuation.  Overflow silently drops the
   oldest entry — the corresponding outermost Ret will mispredict to
   the dispatcher, which is always safe. *)
let ras_push m ~cont_pc ~sb ~uidx =
  let slot = m.ras_top in
  m.ras_pc.(slot) <- cont_pc;
  m.ras_sb.(slot) <- sb;
  m.ras_uidx.(slot) <- uidx;
  m.ras_top <- (slot + 1) land (ras_capacity - 1);
  if m.ras_len < ras_capacity then m.ras_len <- m.ras_len + 1

(* Execute a superblock from its entry unit until a planned chain end, a
   side exit, fuel exhaustion or a halt, and return the fuel left.  The
   caller (the dispatcher in [run]) guarantees [fuel >= 1], [ctx] not
   halted, [ctx.pc = sb.s_pc] and the transfer check for the entry
   already performed.

   Charge order replays the reference interpreter exactly: per
   instruction one [instret] bump, one [cost +. c] and one Breakdown
   cell add — same floats, same sequence — then the effect closure.
   The attribution category is resolved at entry and re-resolved only
   after a domain crossing (attr_of_tag is mutable machine state).

   The junction protocol after a unit's terminator (or fall-through):
   stop on a planned end; stop (side exit) when the actual [ctx.pc]
   differs from the speculated successor; stop *before* the successor's
   transfer check when fuel is exhausted — the reference loop raises
   Out_of_fuel before performing the next fetch's checks, so running
   the transfer check (a posture fault, an APL-cache refill charge)
   with zero budget would diverge; otherwise run [check_transfer] (the
   exact reference crossing: faults, refill charges, injector-free by
   [block_path_ok]) and re-check the translated tag/priv view — a
   mismatch (in-place retag/reprotection) side-exits to the dispatcher,
   which retranslates under the live view.

   Dynamic junctions (PR 10) follow the same discipline but may hop
   *across* superblocks, so the current unit array is a reference:

   - [Dyn_ret]: the Ret's own closure already performed the reference
     transfer check (with the returning frame's rights), so the
     junction only decides where to continue.  Pop the RAS; chain iff
     the predicted pc equals the live [ctx.pc], the predicted
     superblock's generations are live, and the landing unit's
     translated tag/priv match the live view.  Ordinary cross-domain
     returns (callee tag back to caller tag) chain like same-domain
     ones — the attribution category is re-resolved when the tag moved
     across the Ret.  Anything else is a counted miss + side exit; the
     dIPC cross-crossing unwind never reaches here at all (it runs
     through [force_transfer] under Syscall/Trap, which are never
     chained).

   - [Dyn_ic]: Jmpr/Callr closures only set [ctx.pc]; the transfer
     check is the next fetch's job.  On an inline-cache re-match, run
     [check_transfer] at the exact reference position (page change
     only), then chain into the cached superblock iff it matches the
     live tag/priv view at a live generation (refilling the cache from
     the machine-wide table when the cached pointer went stale).  On a
     target change, rebias the cache and fall back to dispatch.

   Nothing inside a superblock can invalidate the *units being run*
   mid-flight: Syscall and Trap (the only instructions that reach
   foreign code) are never chained, and data stores cannot touch the
   separate code store — so generation counters are checked at entry
   and at every cross-superblock hop, not per static junction. *)
let exec_superblock m ctx sb0 fuel =
  let remaining = ref fuel in
  let units = ref sb0.s_units in
  let cur_sb = ref sb0 in
  let idx = ref 0 in
  (* Nothing that runs inside a superblock can move a generation counter
     (Syscall/Trap are never chained; data stores cannot touch the code
     store or the tables), so snapshot all three once and make the
     per-junction liveness test three local compares instead of three
     calls through [sb_live]. *)
  let g_code = Memory.code_generation m.mem in
  let g_pt = Page_table.generation m.page_table in
  let g_apl = Apl.generation m.apl in
  (* The attribution category is a function of [cur_tag] and the
     (mutable) [attr_of_tag] — both can only change across a junction
     transfer check while a superblock runs (syscalls are never
     chained), so resolve once here and again only after a crossing.
     A self-looping unit therefore charges a whole hot loop without a
     single closure re-resolution. *)
  let cat_i = ref (Breakdown.category_index (m.attr_of_tag ctx.cur_tag)) in
  let cells = Breakdown.cells ctx.breakdown in
  let continue_ = ref true in
  while !continue_ do
    let u = Array.unsafe_get !units !idx in
    m.ctr_block_entries <- m.ctr_block_entries + 1;
    let k = if u.u_len < !remaining then u.u_len else !remaining in
    remaining := !remaining - k;
    let ci = !cat_i in
    let costs = u.u_costs and code = u.u_code in
    for i = 0 to k - 1 do
      ctx.instret <- ctx.instret + 1;
      let c = Array.unsafe_get costs i in
      ctx.cost <- ctx.cost +. c;
      Array.unsafe_set cells ci (Array.unsafe_get cells ci +. c);
      (Array.unsafe_get code i) ctx
    done;
    if k < u.u_len then continue_ := false (* out of fuel mid-body *)
    else begin
      (* Snapshot the domain before the terminator: a Ret that crossed
         domains must re-resolve the attribution category on a RAS
         hit. *)
      let tag0 = ctx.cur_tag in
      (match u.u_term with
      | Some _ ->
          if !remaining <= 0 then continue_ := false
          else begin
            decr remaining;
            ctx.instret <- ctx.instret + 1;
            let c = u.u_term_cost in
            ctx.cost <- ctx.cost +. c;
            Array.unsafe_set cells ci (Array.unsafe_get cells ci +. c);
            u.u_term_code ctx;
            (* A call that completed predicts its return. *)
            if u.u_cont_idx >= 0 then
              ras_push m
                ~cont_pc:(u.u_term_pc + Isa.instr_bytes)
                ~sb:!cur_sb ~uidx:u.u_cont_idx
          end
      | None -> ());
      if !continue_ then begin
        match u.u_dyn with
        | Dyn_none ->
            if u.u_next_idx < 0 || ctx.halted then continue_ := false
            else if ctx.pc <> u.u_next then begin
              m.ctr_side_exits <- m.ctr_side_exits + 1;
              continue_ := false
            end
            else if !remaining <= 0 then continue_ := false
            else begin
              let v = Array.unsafe_get !units u.u_next_idx in
              if Layout.page_of ctx.pc <> ctx.cur_page then begin
                check_transfer m ctx ctx.pc;
                if ctx.cur_tag <> v.u_tag || ctx.priv <> v.u_priv then begin
                  m.ctr_side_exits <- m.ctr_side_exits + 1;
                  continue_ := false
                end
                else begin
                  cat_i := Breakdown.category_index (m.attr_of_tag ctx.cur_tag);
                  idx := u.u_next_idx
                end
              end
              else if ctx.cur_tag <> v.u_tag || ctx.priv <> v.u_priv then begin
                m.ctr_side_exits <- m.ctr_side_exits + 1;
                continue_ := false
              end
              else idx := u.u_next_idx
            end
        | Dyn_ret ->
            if ctx.halted then continue_ := false
            else if !remaining <= 0 then continue_ := false
            else begin
              let hit = ref false in
              if m.ras_len > 0 then begin
                (* the Ret consumes its entry whether or not it
                   predicts — ordinary stack discipline *)
                m.ras_len <- m.ras_len - 1;
                m.ras_top <- (m.ras_top + ras_capacity - 1)
                             land (ras_capacity - 1);
                let slot = m.ras_top in
                (* A consumed slot is left in place rather than cleared:
                   [ras_len] gates every read, so a dead entry is only
                   ever seen again after a fresh push overwrites it, and
                   skipping the clear keeps a pointer-array store (and
                   its write barrier) off the hit path.  An empty slot
                   holds [ras_dummy], whose -1 generations fail this
                   guard before [s_units] is touched. *)
                let psb = Array.unsafe_get m.ras_sb slot in
                if m.ras_pc.(slot) = ctx.pc
                   && psb.s_code_gen = g_code && psb.s_pt_gen = g_pt
                   && psb.s_apl_gen = g_apl
                then begin
                  let v = Array.unsafe_get psb.s_units m.ras_uidx.(slot) in
                  if ctx.cur_tag = v.u_tag && ctx.priv = v.u_priv then begin
                    hit := true;
                    (* a cross-domain return (callee tag /= caller
                       tag) chains too — its closure already ran the
                       reference transfer check — but the attribution
                       category must follow the domain *)
                    if ctx.cur_tag <> tag0 then
                      cat_i :=
                        Breakdown.category_index (m.attr_of_tag ctx.cur_tag);
                    cur_sb := psb;
                    units := psb.s_units;
                    idx := m.ras_uidx.(slot)
                  end
                end
              end;
              if !hit then m.ctr_ras_hits <- m.ctr_ras_hits + 1
              else begin
                m.ctr_ras_misses <- m.ctr_ras_misses + 1;
                m.ctr_side_exits <- m.ctr_side_exits + 1;
                continue_ := false
              end
            end
        | Dyn_ic cell ->
            if ctx.halted then continue_ := false
            else if !remaining <= 0 then continue_ := false
            else begin
              let target = ctx.pc in
              if cell.ic_pc = target then begin
                (* monomorphic re-match: the reference transfer check
                   runs here, in the exact position the dispatcher
                   would run it (page change only) *)
                if Layout.page_of target <> ctx.cur_page then
                  check_transfer m ctx target;
                (* The warm-cache validity test is written out at both
                   consult sites (rather than as a shared closure) to
                   keep the hit path allocation-free; an indirect
                   transfer that stayed in the domain also keeps its
                   attribution category without re-resolving. *)
                match cell.ic_sb with
                | Some sb
                  when sb.s_tag = ctx.cur_tag && sb.s_priv = ctx.priv
                       && sb.s_code_gen = g_code && sb.s_pt_gen = g_pt
                       && sb.s_apl_gen = g_apl ->
                    m.ctr_ic_hits <- m.ctr_ic_hits + 1;
                    if ctx.cur_tag <> tag0 then
                      cat_i :=
                        Breakdown.category_index (m.attr_of_tag ctx.cur_tag);
                    cur_sb := sb;
                    units := sb.s_units;
                    idx := 0
                | _ -> (
                    (* stale or cold pointer: refill from the
                       machine-wide table without disturbing the
                       dispatcher-probe counter *)
                    match Hashtbl.find_opt m.sblocks target with
                    | Some sb
                      when sb.s_tag = ctx.cur_tag && sb.s_priv = ctx.priv
                           && sb.s_code_gen = g_code && sb.s_pt_gen = g_pt
                           && sb.s_apl_gen = g_apl ->
                        cell.ic_sb <- Some sb;
                        m.ctr_ic_hits <- m.ctr_ic_hits + 1;
                        if ctx.cur_tag <> tag0 then
                          cat_i :=
                            Breakdown.category_index
                              (m.attr_of_tag ctx.cur_tag);
                        cur_sb := sb;
                        units := sb.s_units;
                        idx := 0
                    | Some _ | None ->
                        m.ctr_ic_misses <- m.ctr_ic_misses + 1;
                        m.ctr_side_exits <- m.ctr_side_exits + 1;
                        continue_ := false)
              end
              else begin
                (* polymorphic (or cold) site: rebias and dispatch *)
                cell.ic_pc <- target;
                cell.ic_sb <- None;
                m.ctr_ic_misses <- m.ctr_ic_misses + 1;
                m.ctr_side_exits <- m.ctr_side_exits + 1;
                continue_ := false
              end
            end
      end
    end
  done;
  !remaining

(* Warm the superblock cache for an entry point before any thread runs
   it — called at proxy/template generation time so the first dIPC
   crossing dispatches into already-compiled code.  A no-op on the
   reference stepper ([block_cache] off), or when [pc] is
   unmapped/non-executable.
   The warm entry stays valid only until the next code placement or
   table change bumps a generation (callers should pretranslate after
   their last [place_code]); a stale entry merely retranslates. *)
let pretranslate m ~pc =
  if m.block_cache then
    match Page_table.find m.page_table pc with
    | Some page when page.Page_table.executable ->
        let sb =
          translate_superblock m ~pc ~tag:page.Page_table.tag
            ~priv:page.Page_table.priv_cap
        in
        m.ctr_sb_translations <- m.ctr_sb_translations + 1;
        Hashtbl.replace m.sblocks pc sb
    | Some _ | None -> ()

(* The fast path is only observably identical to the reference stepper
   when nothing watches individual steps: tracing emits per-instruction
   Charge events (timestamps interleave with crossing events) and an
   injector perturbs crossings, so either disables superblock
   dispatch. *)
let block_path_ok m =
  m.block_cache
  && (not (Trace.enabled m.tracer))
  && match m.inject with None -> true | Some _ -> false

let run ?(fuel = 10_000_000) m ctx =
  let remaining = ref fuel in
  let running = ref true in
  while !running do
    if !remaining <= 0 then raise Out_of_fuel;
    if block_path_ok m then
      if ctx.halted then begin
        decr remaining;
        running := false
      end
      else begin
        let pc = ctx.pc in
        if Layout.page_of pc <> ctx.cur_page then check_transfer m ctx pc;
        let sb = find_superblock m ctx pc in
        let u0 = Array.unsafe_get sb.s_units 0 in
        if u0.u_len = 0 && u0.u_term = None then begin
          (* Unchainable terminator (Syscall/Trap/Halt) or unfetchable
             slot at the entry: one reference step, precompiled (the
             transfer check above already ran).  Ret/Jmpr/Callr entries
             are chained terminators and run through [exec_superblock]
             like any other unit. *)
          decr remaining;
          sb.s_entry ctx;
          if ctx.halted then running := false
        end
        else remaining := exec_superblock m ctx sb !remaining
      end
    else begin
      decr remaining;
      (* Reference path.  When the tracer is off, [step]'s try/with
         exists only to emit a Fault event nobody would see — skip the
         handler installation per step and let faults propagate raw. *)
      let r =
        if Trace.enabled m.tracer then step m ctx else step_unlogged m ctx
      in
      match r with `Halted -> running := false | `Running -> ()
    end
  done

(* --- conveniences used by the OS layer and tests --- *)

(* Kernel-privilege control transfer: used when the OS redirects a thread
   (fault unwinding, Sec. 5.2.1) — no APL checks apply, the kernel is the
   most privileged agent in the system. *)
let force_transfer m ctx ~target =
  let page = find_page m ~pc:target target in
  ctx.pc <- target;
  ctx.cur_tag <- page.tag;
  ctx.cur_page <- Layout.page_of target;
  ctx.priv <- page.priv_cap;
  ctx.halted <- false;
  ignore (Apl_cache.find_or_install ctx.apl_cache page.tag)

(* Kernel-privilege frame adjustment for unwinding: drop to [depth],
   invalidating every synchronous capability created in the dropped
   frames. *)
let force_unwind_depth ctx ~depth =
  if depth < 0 || depth > ctx.depth then invalid_arg "force_unwind_depth";
  for d = depth + 1 to ctx.depth do
    ctx.epochs.(d) <- ctx.epochs.(d) + 1
  done;
  ctx.depth <- depth

(* Write a buffer of words into memory without protection checks (loader /
   DMA path). *)
let poke_words m ~addr words =
  Array.iteri (fun i v -> Memory.store_word m.mem (addr + (i * word)) v) words

let peek_word m ~addr = Memory.load_word m.mem addr
