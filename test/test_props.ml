(* Property tests (qcheck) for the simulation substrate primitives:
   Rng.split stream independence, Histogram bucket boundaries, and Stats
   against straightforward float references. *)

module Rng = Dipc_sim.Rng
module Histogram = Dipc_sim.Histogram
module Stats = Dipc_sim.Stats

(* --- Rng.split: determinism, divergence, designed parent advance --- *)

let draws rng n = List.init n (fun _ -> Rng.next_int64 rng)

let qcheck_split_deterministic =
  QCheck.Test.make ~name:"rng split is deterministic in the seed" ~count:100
    QCheck.small_int
    (fun seed ->
      let a = Rng.create ~seed in
      let b = Rng.create ~seed in
      let ca = Rng.split a and cb = Rng.split b in
      draws ca 8 = draws cb 8 && draws a 8 = draws b 8)

let qcheck_split_diverges =
  QCheck.Test.make ~name:"rng split child shares no draws with parent"
    ~count:100 QCheck.small_int
    (fun seed ->
      let p = Rng.create ~seed in
      let c = Rng.split p in
      (* 16 consecutive 64-bit draws colliding would be astronomically
         unlikely for a correct split. *)
      draws p 16 <> draws c 16)

let qcheck_split_advances_parent_by_one =
  QCheck.Test.make ~name:"rng split advances the parent by one draw"
    ~count:100 QCheck.small_int
    (fun seed ->
      let a = Rng.create ~seed in
      let b = Rng.copy a in
      ignore (Rng.next_int64 b);
      ignore (Rng.split a);
      draws a 8 = draws b 8)

let qcheck_split_position_matters =
  QCheck.Test.make ~name:"rng splits at different positions differ" ~count:100
    QCheck.small_int
    (fun seed ->
      let a = Rng.create ~seed in
      let c0 = Rng.split a in
      let c1 = Rng.split a in
      draws c0 8 <> draws c1 8)

(* --- Histogram: HDR resolution bound, via the public percentile --- *)

let singleton x =
  let h = Histogram.create () in
  Histogram.add h x;
  h

let qcheck_hist_relative_error_bound =
  QCheck.Test.make ~name:"histogram recovers any sample within 1%" ~count:300
    QCheck.(float_range 1. 1e9)
    (fun x ->
      (* A singleton's percentile lies inside the sample's bucket, whose
         width is <= 1/128 of its lower bound. *)
      let p = Histogram.percentile (singleton x) 50. in
      Float.abs (p -. x) <= 0.01 *. x)

let qcheck_hist_power_of_two_resolution =
  QCheck.Test.make
    ~name:"histogram keeps 1% resolution at power-of-two boundaries"
    ~count:100
    QCheck.(int_range 1 30)
    (fun k ->
      let b = 2. ** float_of_int k in
      (* The old layout collapsed [2^(k-1), 2^k) into one bucket; the
         HDR sub-buckets must distinguish either side of the boundary. *)
      let above = Histogram.percentile (singleton b) 50. in
      let below = Histogram.percentile (singleton (b *. 0.99)) 50. in
      Float.abs (above -. b) <= 0.01 *. b
      && Float.abs (below -. (b *. 0.99)) <= 0.01 *. b
      && below < above)

let test_hist_clamps () =
  let p50 x = Histogram.percentile (singleton x) 50. in
  Alcotest.(check (float 0.)) "negative samples land with zero" (p50 0.)
    (p50 (-5.));
  Alcotest.(check (float 0.)) "NaN samples land with zero" (p50 0.)
    (p50 Float.nan);
  Alcotest.(check (float 0.)) "huge samples clamp to the last bucket"
    (p50 1e18) (p50 1e20);
  Alcotest.(check (float 0.)) "empty histogram reports 0" 0.
    (Histogram.percentile (Histogram.create ()) 50.)

let qcheck_hist_percentile_monotone_in_samples =
  QCheck.Test.make ~name:"histogram p100 bounds every sample" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_range 1. 1e9))
    (fun xs ->
      let h = Histogram.create () in
      List.iter (Histogram.add h) xs;
      let top = Histogram.percentile h 100. in
      let mx = List.fold_left Float.max 0. xs in
      (* p100 is the upper edge of the max sample's bucket: at or above
         every sample, within 1% of the maximum. *)
      List.for_all (fun x -> x <= top) xs && top <= 1.01 *. mx)

(* --- Stats: Welford accumulator and nearest-rank percentile vs plain
       float references --- *)

let close ~scale a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1. scale

let qcheck_stats_mean_matches_naive_sum =
  QCheck.Test.make ~name:"stats mean matches the naive sum" ~count:300
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_exclusive 1e9))
    (fun xs ->
      let t = Stats.create () in
      List.iter (Stats.add t) xs;
      let naive = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs) in
      close ~scale:naive (Stats.mean t) naive)

let qcheck_stats_variance_matches_two_pass =
  QCheck.Test.make ~name:"stats variance matches the two-pass reference"
    ~count:300
    QCheck.(list_of_size Gen.(2 -- 100) (float_bound_exclusive 1e6))
    (fun xs ->
      let t = Stats.create () in
      List.iter (Stats.add t) xs;
      let n = float_of_int (List.length xs) in
      let m = List.fold_left ( +. ) 0. xs /. n in
      let ref_var =
        List.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0. xs
        /. (n -. 1.)
      in
      close ~scale:ref_var (Stats.variance t) ref_var)

let qcheck_stats_percentile_matches_reference =
  QCheck.Test.make ~name:"stats percentile is nearest-rank of the sorted array"
    ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 80) (float_bound_exclusive 1e9))
        (float_range 0. 100.))
    (fun (xs, p) ->
      let a = Array.of_list xs in
      let sorted = Array.of_list xs in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
      let rank = if rank < 1 then 1 else if rank > n then n else rank in
      Stats.percentile a p = sorted.(rank - 1))

let qcheck_stats_percentile_bounds =
  QCheck.Test.make ~name:"stats p0/p100 are min/max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 80) (float_bound_exclusive 1e9))
    (fun xs ->
      let a = Array.of_list xs in
      let t = Stats.create () in
      List.iter (Stats.add t) xs;
      Stats.percentile a 0. = Stats.min_value t
      && Stats.percentile a 100. = Stats.max_value t)

let suites =
  [
    ( "props.rng",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_split_deterministic;
          qcheck_split_diverges;
          qcheck_split_advances_parent_by_one;
          qcheck_split_position_matters;
        ] );
    ( "props.histogram",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_hist_relative_error_bound;
          qcheck_hist_power_of_two_resolution;
          qcheck_hist_percentile_monotone_in_samples;
        ]
      @ [ Alcotest.test_case "bucket clamps" `Quick test_hist_clamps ] );
    ( "props.stats",
      List.map QCheck_alcotest.to_alcotest
        [
          qcheck_stats_mean_matches_naive_sum;
          qcheck_stats_variance_matches_two_pass;
          qcheck_stats_percentile_matches_reference;
          qcheck_stats_percentile_bounds;
        ] );
  ]
