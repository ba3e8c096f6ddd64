(* Utility tests: RNG determinism and distributional sanity, statistics
   against hand-computed values. *)

let t_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let t_rng_split_independent () =
  let parent = Rng.create 1 in
  let child = Rng.split parent in
  (* The child stream differs from the parent's continuation. *)
  Alcotest.(check bool) "different streams" true (Rng.bits64 child <> Rng.bits64 parent)

let t_rng_int_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 13 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 13)
  done

let t_rng_uniform_mean () =
  let r = Rng.create 8 in
  let n = 5000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.uniform r
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "mean %.3f near 0.5" mean) true
    (Float.abs (mean -. 0.5) < 0.03)

let t_rng_gauss_moments () =
  let r = Rng.create 9 in
  let n = 5000 in
  let acc = ref 0.0 and acc2 = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.gauss r in
    acc := !acc +. v;
    acc2 := !acc2 +. (v *. v)
  done;
  let mean = !acc /. float_of_int n in
  let var = (!acc2 /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.06);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.0) < 0.1)

let t_rng_shuffle_permutes () =
  let r = Rng.create 10 in
  let arr = Array.init 20 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 20 (fun i -> i)) sorted

let t_rng_sample_without_replacement () =
  let r = Rng.create 11 in
  let s = Rng.sample r 5 (Array.init 10 (fun i -> i)) in
  Alcotest.(check int) "five" 5 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Array.iteri
    (fun i v -> if i > 0 then Alcotest.(check bool) "distinct" true (v <> sorted.(i - 1)))
    sorted

let t_stats_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean xs);
  Alcotest.(check (float 1e-9)) "variance" 1.25 (Stats.variance xs);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Stats.median xs);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min xs);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max xs);
  Alcotest.(check int) "argmax" 3 (Stats.argmax xs);
  Alcotest.(check int) "argmin" 0 (Stats.argmin xs)

let t_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  Alcotest.(check (float 1e-9)) "p0" 10.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p50" 30.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p100" 50.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p25 interpolated" 20.0 (Stats.percentile xs 25.0)

let t_stats_correlation () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "self correlation" 1.0 (Stats.pearson xs xs);
  let neg = Array.map (fun x -> -.x) xs in
  Alcotest.(check (float 1e-9)) "anti correlation" (-1.0) (Stats.pearson xs neg);
  Alcotest.(check (float 1e-9)) "spearman monotone" 1.0
    (Stats.spearman xs [| 1.0; 10.0; 100.0; 1000.0 |])

let t_stats_spearman_ties () =
  (* With ties, ranks are averaged: still well-defined and bounded. *)
  let s = Stats.spearman [| 1.0; 1.0; 2.0 |] [| 2.0; 2.0; 4.0 |] in
  Alcotest.(check bool) "bounded" true (s >= -1.0 && s <= 1.0);
  Alcotest.(check bool) "positive" true (s > 0.0)

let t_stats_geomean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |])

let t_stats_histogram () =
  let h = Stats.histogram [| 0.1; 0.2; 0.6; 0.9; 1.5; -0.5 |] ~bins:2 ~lo:0.0 ~hi:1.0 in
  (* 1.5 clamps to the top bin, -0.5 to the bottom. *)
  Alcotest.(check (array int)) "counts" [| 3; 3 |] h

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"pearson is within [-1, 1]" ~count:100
      (list_of_size (Gen.int_range 2 20) (pair (float_range (-5.0) 5.0) (float_range (-5.0) 5.0)))
      (fun pairs ->
        let xs = Array.of_list (List.map fst pairs) in
        let ys = Array.of_list (List.map snd pairs) in
        let p = Stats.pearson xs ys in
        p >= -1.0 -. 1e-9 && p <= 1.0 +. 1e-9);
    Test.make ~name:"permutation is a bijection" ~count:100 (int_range 1 50)
      (fun n ->
        let p = Rng.permutation (Rng.create n) n in
        let sorted = Array.copy p in
        Array.sort compare sorted;
        sorted = Array.init n (fun i -> i));
    Test.make ~name:"percentile is monotone in p" ~count:50
      (list_of_size (Gen.int_range 2 20) (float_range 0.0 100.0))
      (fun raw ->
        let xs = Array.of_list raw in
        Stats.percentile xs 25.0 <= Stats.percentile xs 75.0) ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "util"
    [ ( "rng",
        [ quick "deterministic" t_rng_deterministic;
          quick "split" t_rng_split_independent;
          quick "int bounds" t_rng_int_bounds;
          quick "uniform mean" t_rng_uniform_mean;
          quick "gauss moments" t_rng_gauss_moments;
          quick "shuffle" t_rng_shuffle_permutes;
          quick "sample" t_rng_sample_without_replacement ] );
      ( "stats",
        [ quick "basics" t_stats_basics;
          quick "percentile" t_stats_percentile;
          quick "correlation" t_stats_correlation;
          quick "spearman ties" t_stats_spearman_ties;
          quick "geomean" t_stats_geomean;
          quick "histogram" t_stats_histogram ] );
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |]))
          qcheck_tests ) ]
