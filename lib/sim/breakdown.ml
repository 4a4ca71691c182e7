(* Cost attribution by category.

   These are exactly the seven blocks of Figure 2 in the paper:
     (1) user code
     (2) syscall + 2x swapgs + sysret
     (3) syscall dispatch trampoline
     (4) kernel / privileged code
     (5) schedule / context switch
     (6) page table switch
     (7) idle / IO wait
   plus two dIPC-specific categories so proxies and stubs can be reported
   separately when useful (they fold into User_code/Kernel for Figure 2
   style reports). *)

type category =
  | User_code
  | Syscall_entry
  | Dispatch
  | Kernel
  | Schedule
  | Page_table
  | Idle
  | Proxy
  | Stub

let all_categories =
  [ User_code; Syscall_entry; Dispatch; Kernel; Schedule; Page_table; Idle; Proxy; Stub ]

let category_index = function
  | User_code -> 0
  | Syscall_entry -> 1
  | Dispatch -> 2
  | Kernel -> 3
  | Schedule -> 4
  | Page_table -> 5
  | Idle -> 6
  | Proxy -> 7
  | Stub -> 8

let category_name = function
  | User_code -> "user code"
  | Syscall_entry -> "syscall+swapgs+sysret"
  | Dispatch -> "syscall dispatch trampoline"
  | Kernel -> "kernel/privileged code"
  | Schedule -> "schedule/ctxt switch"
  | Page_table -> "page table switch"
  | Idle -> "idle/IO wait"
  | Proxy -> "dIPC proxy"
  | Stub -> "dIPC user stub"

type t = { cells : float array }

let create () = { cells = Array.make 9 0. }

let copy t = { cells = Array.copy t.cells }

let clear t = Array.fill t.cells 0 (Array.length t.cells) 0.

let charge t category ns =
  let i = category_index category in
  t.cells.(i) <- t.cells.(i) +. ns

(* Pre-resolved-index variant for call sites that charge the same
   category into several breakdowns: the index is always a valid cell
   (categories map to 0..8), so the update skips the bounds check. *)
let charge_idx t i ns = Array.unsafe_set t.cells i (Array.unsafe_get t.cells i +. ns)

let cells t = t.cells

let get t category = t.cells.(category_index category)

let total t = Array.fold_left ( +. ) 0. t.cells

let merge ~into src =
  Array.iteri (fun i v -> into.cells.(i) <- into.cells.(i) +. v) src.cells

let scale t factor = { cells = Array.map (fun v -> v *. factor) t.cells }

(* Fold the dIPC-specific categories into the Figure 2 blocks: proxies are
   privileged code, stubs are user code. *)
let to_figure2 t =
  let out = copy t in
  let proxy = get t Proxy and stub = get t Stub in
  out.cells.(category_index Proxy) <- 0.;
  out.cells.(category_index Stub) <- 0.;
  out.cells.(category_index Kernel) <- out.cells.(category_index Kernel) +. proxy;
  out.cells.(category_index User_code) <- out.cells.(category_index User_code) +. stub;
  out

let to_list t =
  List.filter_map
    (fun c ->
      let v = get t c in
      if v > 0. then Some (c, v) else None)
    all_categories

let pp ppf t =
  let items = to_list t in
  Fmt.pf ppf "total=%.1fns [" (total t);
  List.iteri
    (fun i (c, v) ->
      if i > 0 then Fmt.pf ppf "; ";
      Fmt.pf ppf "%s=%.1f" (category_name c) v)
    items;
  Fmt.pf ppf "]"
