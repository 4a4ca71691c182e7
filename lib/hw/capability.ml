(* Transient data-sharing capabilities (Sec. 4.2).

   Capabilities grant access to an address range with a permission.  They
   are created and destroyed by user code through hardware instructions,
   cannot be forged, and come in two flavours (Sec. 4.1.5 of the CODOMs
   paper, summarised in Sec. 4.2 here):

   - Synchronous: tied to the creating thread's current call frame; they
     die automatically when that frame returns, so they are safe to pass
     down a synchronous call chain (this is what isolates per-thread data
     stacks in dIPC).

   - Asynchronous: may be passed across threads and stored in memory, and
     support immediate revocation through revocation counters — the
     capability embeds (counter index, value at creation) and is valid only
     while the counter still holds that value. *)

type scope =
  | Synchronous of { thread : int; depth : int; epoch : int }
  | Asynchronous of { owner_tag : int; counter : int; value : int }

type t = { base : int; length : int; perm : Perm.t; scope : scope }

let covers cap ~addr ~len =
  addr >= cap.base && addr + len <= cap.base + cap.length

let grants cap needed = Perm.includes cap.perm needed

(* Derivation never amplifies rights (Sec. 4.2: "a new capability is always
   derived from the current domain's APL or from an existing capability"). *)
let restrict cap ~base ~length ~perm =
  if base < cap.base || base + length > cap.base + cap.length then
    Error "restrict: range exceeds parent capability"
  else if not (Perm.includes cap.perm perm) then
    Error "restrict: permission exceeds parent capability"
  else Ok { cap with base; length; perm }

let pp ppf c =
  let scope =
    match c.scope with
    | Synchronous { thread; depth; epoch } ->
        Printf.sprintf "sync(t%d d%d e%d)" thread depth epoch
    | Asynchronous { owner_tag; counter; value } ->
        Printf.sprintf "async(tag%d ctr%d=%d)" owner_tag counter value
  in
  Fmt.pf ppf "cap[0x%x+0x%x %a %s]" c.base c.length Perm.pp c.perm scope

(* --- revocation counters for asynchronous capabilities --- *)

(* One row of counters per owner tag, dense by tag (tags are small
   consecutive integers).  A counter never bumped reads 0, and a tag
   that never revoked anything has the shared empty row, so validating
   an asynchronous capability of such a tag — every one on the warm
   call paths — neither hashes nor allocates. *)
module Revocation = struct
  type table = { mutable rows : (int, int) Hashtbl.t array }

  let no_revocations : (int, int) Hashtbl.t = Hashtbl.create 1

  let create () = { rows = [||] }

  let value t ~tag ~counter =
    if tag < 0 || tag >= Array.length t.rows then 0
    else
      let row = t.rows.(tag) in
      if Hashtbl.length row = 0 then 0
      else match Hashtbl.find row counter with v -> v | exception Not_found -> 0

  (* Immediate revocation: bump the counter; every capability stamped with
     the old value becomes invalid everywhere at once. *)
  let revoke t ~tag ~counter =
    if tag < 0 then invalid_arg "Revocation.revoke: negative owner tag";
    let n = Array.length t.rows in
    if tag >= n then begin
      let rows = Array.make (max (tag + 1) (2 * n)) no_revocations in
      Array.blit t.rows 0 rows 0 n;
      t.rows <- rows
    end;
    if t.rows.(tag) == no_revocations then t.rows.(tag) <- Hashtbl.create 8;
    Hashtbl.replace t.rows.(tag) counter (value t ~tag ~counter + 1)
end
