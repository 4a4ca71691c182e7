(* Access Protection Lists (Sec. 4.1).

   Every domain tag T is associated with an APL: the list of tags code in T
   may access, with a permission each.  A domain always has implicit write
   access to its own tag ("domain B has implicit read-write access to
   itself").

   Representation: one dense row per source tag, indexed by destination
   tag, so [permission] — which runs on every cross-tag data access and
   every domain crossing — is two bounds checks and two array reads, with
   no hashing and no allocation.  Tags are small consecutive integers
   ([fresh_tag]), so rows stay short; both levels grow on demand when a
   grant names a tag past their end, and every absent cell reads as
   [Perm.Nil]. *)

type t = {
  mutable rows : Perm.t array array; (* rows.(src).(dst) = hardware permission *)
  mutable next_tag : int;
  mutable generation : int; (* bumped on every change, invalidates caches *)
}

let create () = { rows = [||]; next_tag = 1; generation = 0 }

let fresh_tag t =
  let tag = t.next_tag in
  t.next_tag <- t.next_tag + 1;
  tag

let permission t ~src ~dst =
  if src = dst then Perm.Write
  else if src < 0 || src >= Array.length t.rows then Perm.Nil
  else
    let row = Array.unsafe_get t.rows src in
    if dst < 0 || dst >= Array.length row then Perm.Nil else Array.unsafe_get row dst

(* Grow [a] so index [i] is in range, padding with [fill]. *)
let grown a i fill =
  let n = Array.length a in
  if i < n then a
  else begin
    let b = Array.make (max (i + 1) (2 * n)) fill in
    Array.blit a 0 b 0 n;
    b
  end

let grant t ~src ~dst perm =
  if src = dst then invalid_arg "Apl.grant: a domain's self access is implicit";
  if src < 0 || dst < 0 then invalid_arg "Apl.grant: negative domain tag";
  t.generation <- t.generation + 1;
  t.rows <- grown t.rows src [||];
  t.rows.(src) <- grown t.rows.(src) dst Perm.Nil;
  t.rows.(src).(dst) <- Perm.to_hardware perm

let revoke t ~src ~dst =
  t.generation <- t.generation + 1;
  if src <> dst && not (Perm.equal (permission t ~src ~dst) Perm.Nil) then
    t.rows.(src).(dst) <- Perm.Nil

(* Drop a domain entirely: its own APL and every grant pointing at it. *)
let drop_tag t tag =
  t.generation <- t.generation + 1;
  if tag >= 0 then
    Array.iteri
      (fun src row ->
        if src = tag then t.rows.(src) <- [||]
        else if tag < Array.length row then row.(tag) <- Perm.Nil)
      t.rows

let generation t = t.generation
