(* Host-time spans the benchmark records around its own calls into the
   simulator's public functions.  They are unrelated to
   [Dipc_sim.Trace], which records *simulated* events inside a run and
   folds them into replay digests: a span here measures host time and
   allocation from outside, changes nothing the simulator computes, and
   never enters a digest. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  parent : int;  (** id of the enclosing span, -1 at top level *)
  phase : string;  (** "setup", "warmup", "timed" or "traced" *)
  pass : int;  (** index of the set-up repetition or pass in [phase] *)
  start_ns : int;
  stop_ns : int;
  minor_words : float;  (** minor-heap words allocated inside the span *)
}

(* Kept in memory, newest first, and written out once at exit. *)
let recorded : span list ref = ref []

let next_id = ref 0

let open_ids : int list ref = ref []

let cur_phase = ref "setup"

let cur_pass = ref 0

let set_pass phase pass =
  cur_phase := phase;
  cur_pass := pass

let with_span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_ids with p :: _ -> p | [] -> -1 in
  open_ids := id :: !open_ids;
  let phase = !cur_phase and pass = !cur_pass in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  Fun.protect f ~finally:(fun () ->
      let t1 = now_ns () in
      let w1 = Gc.minor_words () in
      open_ids := List.tl !open_ids;
      recorded :=
        {
          id;
          name;
          parent;
          phase;
          pass;
          start_ns = t0;
          stop_ns = t1;
          minor_words = w1 -. w0;
        }
        :: !recorded)

let all () = List.rev !recorded

let dur_s s = float_of_int (s.stop_ns - s.start_ns) /. 1e9

(* A span's self time: its duration minus the time its direct children
   cover (children never overlap: the benchmark is single-threaded). *)
let self_s spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur_s s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    spans;
  fun s -> dur_s s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.

(* One value per pass of [phase], in pass order: [f] summed over that
   pass's spans whose name satisfies [named].  Passes without such a
   span are left out. *)
let per_pass ?(f = dur_s) spans ~phase named =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.phase = phase && named s.name then
        Hashtbl.replace tbl s.pass
          (f s +. Option.value (Hashtbl.find_opt tbl s.pass) ~default:0.))
    spans;
  Hashtbl.fold (fun pass v acc -> (pass, v) :: acc) tbl []
  |> List.sort compare |> List.map snd

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace_event JSON (complete "X" events, microseconds from the
   first span), loadable in Perfetto; [meta] lands in "otherData". *)
let write_chrome path ~meta spans =
  let self = self_s spans in
  let origin =
    List.fold_left (fun a s -> min a s.start_ns) max_int spans
  in
  let oc = open_out path in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %s, \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d, \"phase\": %s, \
         \"pass\": %d, \"self_us\": %.3f, \"minor_words\": %.0f}}"
        (if i = 0 then "" else ",\n")
        (json_string s.name)
        (float_of_int (s.start_ns - origin) /. 1e3)
        (float_of_int (s.stop_ns - s.start_ns) /. 1e3)
        s.id s.parent (json_string s.phase) s.pass
        (self s *. 1e6) s.minor_words)
    spans;
  output_string oc "\n],\n\"otherData\": {";
  List.iteri
    (fun i (k, v) ->
      Printf.fprintf oc "%s%s: %s" (if i = 0 then "" else ", ") (json_string k)
        (json_string v))
    meta;
  output_string oc "}}\n";
  close_out oc
