(* Order statistics used by the benchmark's reports.  Kept apart from
   [Dipc_sim.Stats] on purpose: the benchmark must not score the
   simulator with the simulator's own code. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let mean xs =
  if xs = [] then invalid_arg "Stats.mean: no samples";
  List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The three cut points of Python's [statistics.quantiles(xs, n=4)]
   (its default "exclusive" method), so a spread printed here reads the
   same as one computed over the printed values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need two samples";
  let m = ld + 1 in
  let cut i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (cut 1, cut 2, cut 3)

(* Inter-quartile range as a share of the median. *)
let rel_spread xs =
  let q1, _, q3 = quartiles xs in
  let med = median xs in
  if med = 0. then 0. else (q3 -. q1) /. Float.abs med

(* The highest of the usual percentiles that still has at least ten
   samples above its nearest-rank position, with its value: with fewer
   samples a tail percentile is one or two outliers, not a tail.  Over
   a sorted array [a]. *)
let tail_candidates = [ 99.99; 99.9; 99.; 90.; 50. ]

(* 0-based nearest rank of percentile [q] among [n] samples; the
   epsilon keeps 99.9% of 10000 at rank 9989 despite 99.9 having no
   exact binary form. *)
let rank q n = int_of_float (Float.ceil ((q *. float_of_int n /. 100.) -. 1e-9)) - 1

let tail_percentile (a : float array) =
  let n = Array.length a in
  let rank q = rank q n in
  match List.find_opt (fun q -> n - (rank q + 1) >= 10) tail_candidates with
  | Some q -> Some (q, a.(rank q))
  | None -> None

(* Nearest-rank percentile over a sorted array. *)
let percentile (a : float array) q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  a.(max 0 (min (n - 1) (rank q n)))
