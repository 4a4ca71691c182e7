(** Cost attribution by category: the seven blocks of the paper's
    Figure 2, plus dIPC-specific proxy/stub categories that fold into
    them for Figure 2-style reports. *)

type category =
  | User_code  (** block 1: application code *)
  | Syscall_entry  (** block 2: syscall + 2x swapgs + sysret *)
  | Dispatch  (** block 3: syscall dispatch trampoline *)
  | Kernel  (** block 4: kernel / privileged code *)
  | Schedule  (** block 5: schedule / context switch *)
  | Page_table  (** block 6: page table switch *)
  | Idle  (** block 7: idle / IO wait *)
  | Proxy  (** dIPC trusted proxy code (folds into Kernel) *)
  | Stub  (** dIPC user stubs (folds into User_code) *)

val all_categories : category list

val category_name : category -> string

(** Stable dense index of a category, matching [all_categories] order
    (used by flat trace storage and digests). *)
val category_index : category -> int

type t

val create : unit -> t

val copy : t -> t

val clear : t -> unit

(** Add [ns] to a category. *)
val charge : t -> category -> float -> unit

(** [charge_idx t i ns] = [charge t c ns] where [i = category_index c];
    for hot call sites that charge one category into several breakdowns. *)
val charge_idx : t -> int -> float -> unit

(** The cells themselves, indexed by {!category_index}, for per-instruction
    loops in other modules: an update written out at the call site keeps
    the charged float unboxed, where a call to {!charge_idx} across the
    module boundary would box it.  Callers may only add to a cell. *)
val cells : t -> float array

val get : t -> category -> float

val total : t -> float

(** Accumulate [src] into [into]. *)
val merge : into:t -> t -> unit

(** A new breakdown with every cell multiplied by [factor]. *)
val scale : t -> float -> t

(** Fold the dIPC-specific categories into the Figure 2 blocks. *)
val to_figure2 : t -> t

(** Non-zero cells in display order. *)
val to_list : t -> (category * float) list

val pp : Format.formatter -> t -> unit
