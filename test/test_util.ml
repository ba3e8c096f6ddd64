(* Utility tests: RNG determinism, distributional sanity and allocation,
   MD5 pins of the generator's streams and of the probe batch and initial
   weights drawn from them, statistics against hand-computed values, and
   the JSON codec's round trip, strict reader and number rendering. *)

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

(* Stream pins: MD5 digests of the exact bits each draw returns, for seeds
   that include zero, a negative seed and [max_int].  Every weight
   initialization, probe batch and candidate derives from these streams,
   so a change to how the generator stores or steps its state must leave
   every digest unchanged. *)
let pin_seeds = [ 0; 1; 42; -7; max_int ]

let digest_of fill =
  let b = Buffer.create 65536 in
  fill b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)
let add_int b x = Buffer.add_int64_le b (Int64.of_int x)

let stream_digest draw =
  digest_of (fun b ->
      List.iter
        (fun seed ->
          let r = Rng.create seed in
          for _ = 1 to 500 do
            draw r b
          done)
        pin_seeds)

let rng_golden =
  let ints = Array.init 20 (fun i -> i) in
  [ ( "bits64", "6f74e506aac50d4d32a5fac89979436c",
      fun r b -> Buffer.add_int64_le b (Rng.bits64 r) );
    ("uniform", "4dd41b40c1195870818f5e9ccbb49931", fun r b -> add_float b (Rng.uniform r));
    ("gauss", "3da2cf80a04bc0c4d1a37832da16a938", fun r b -> add_float b (Rng.gauss r));
    ( "gauss_scaled", "20931a67cdb5d8639bacb6fdbc431f3c",
      fun r b -> add_float b (Rng.gauss_scaled r ~mean:0.5 ~std:3.0) );
    ("float", "13737276a59d1818b7e976074db8aa4d", fun r b -> add_float b (Rng.float r 3.5));
    ("int 1", "b2fe457348de243a579a1591d3815170", fun r b -> add_int b (Rng.int r 1));
    ("int 10", "0d0ab006ebf80db8db68ff894cad1b4f", fun r b -> add_int b (Rng.int r 10));
    ("int 1000", "8a835ec72c856f28c3d70a5c3af368fb", fun r b -> add_int b (Rng.int r 1000));
    ( "int max_int", "ae05f87abdc1067bd5bdefc3ef9b21fb",
      fun r b -> add_int b (Rng.int r max_int) );
    ( "bool", "0fb18f5704adb6b1abe4ef705ae86f3d",
      fun r b -> add_int b (Bool.to_int (Rng.bool r)) );
    ( "split", "5ce2e1373c250b9e6924755d7161439c",
      fun r b ->
        let child = Rng.split r in
        Buffer.add_int64_le b (Rng.bits64 child);
        Buffer.add_int64_le b (Rng.bits64 child) );
    ( "shuffle", "6b3535f15e05f5d02df983bb7627c677",
      fun r b ->
        let a = Array.init 50 (fun i -> i) in
        Rng.shuffle r a;
        Array.iter (add_int b) a );
    ( "permutation", "80640d84ff3c678fbf895bce58421e5e",
      fun r b -> Array.iter (add_int b) (Rng.permutation r 37) );
    ( "sample", "3c36bf28a2df2a7ff5df1c21d868b13f",
      fun r b -> Array.iter (add_int b) (Rng.sample r 5 ints) );
    ("choice", "fffbeba5595eae71da171542ff31dcdd", fun r b -> add_int b (Rng.choice r ints));
    ( "choice_list", "98db9b26113f8d2428cfbf163c926f7c",
      fun r b -> add_int b (Rng.choice_list r [ 3; 1; 4; 1; 5 ]) ) ]

let t_rng_golden () =
  List.iter
    (fun (name, expected, draw) ->
      Alcotest.(check string) name expected (stream_digest draw))
    rng_golden

let t_rng_copy () =
  let r = Rng.create 5 and twin = Rng.create 5 in
  for _ = 1 to 7 do
    ignore (Rng.bits64 r);
    ignore (Rng.bits64 twin)
  done;
  let c = Rng.copy r in
  Alcotest.(check int64) "the copy continues the stream" (Rng.bits64 (Rng.copy r))
    (Rng.bits64 c);
  for _ = 1 to 10 do
    ignore (Rng.gauss c)
  done;
  Alcotest.(check int64) "drawing from a copy leaves the original" (Rng.bits64 twin)
    (Rng.bits64 r)

(* Allocation gate: a draw keeps the generator's state unboxed, so it
   allocates at most the float it returns boxed to another module (2 words
   on 64-bit).  A boxed state word costs 3 more words per step and a
   closure per [gauss] call more again, so this catches either coming
   back.  Minor-word counts are deterministic; a minor collection brackets
   each count, as in the Fisher pass's allocation gate. *)
let minor_words_per_draw n f =
  Gc.minor ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor ();
  (Gc.minor_words () -. before) /. float_of_int n

let t_rng_alloc_free () =
  let n = 100_000 in
  let r = Rng.create 3 in
  let uniform =
    minor_words_per_draw n (fun () ->
        let acc = ref 0.0 in
        for _ = 1 to n do
          acc := !acc +. Rng.uniform r
        done;
        ignore (Sys.opaque_identity !acc))
  in
  let normal =
    minor_words_per_draw n (fun () ->
        ignore (Sys.opaque_identity (Tensor.rand_normal r [| n |] ~mean:0.0 ~std:1.0)))
  in
  List.iter
    (fun (what, words) ->
      if words > 3.0 then Alcotest.failf "%s: %.2f minor words per draw" what words)
    [ ("Rng.uniform", uniform); ("Tensor.rand_normal", normal) ]

let tensor_bits b t = Array.iter (add_float b) (Tensor.data t)

(* The probe minibatch every search scores its candidates on. *)
let probe_golden =
  [ (8, "54507dc496391c8e2a4a9cd881996a58");
    (16, "e022607bac8450ac28ebfb85a72a431c");
    (32, "91f3e6e0e573e321a39f63cd74713fb4") ]

let t_probe_golden () =
  List.iter
    (fun (size, expected) ->
      let digest =
        digest_of (fun b ->
            let probe = Job.probe_batch (Rng.create 42) ~input_size:size in
            tensor_bits b probe.Train.images;
            Array.iter (add_int b) probe.labels)
      in
      Alcotest.(check string) (Printf.sprintf "probe batch %dx%d" size size) expected digest)
    probe_golden

(* Every parameter of a freshly built network, in node order. *)
let model_golden =
  [ ("resnet18", "c9ac05056318f1643bd655b2c0ed4335");
    ("mobilenet_small", "a008359c54f794598a5df8dca3d50e9a") ]

let t_model_golden () =
  List.iter
    (fun (name, expected) ->
      let m = Models.build (Option.get (Zoo.spec name)) (Rng.create 42) in
      let digest =
        digest_of (fun b ->
            List.iter (fun p -> tensor_bits b p.Layer.p_value) (Graph.params m.Models.graph))
      in
      Alcotest.(check string) (name ^ " parameters") expected digest)
    model_golden

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

(* --- JSON codec ----------------------------------------------------------- *)

(* Structural equality with numbers compared by their bits, so -0.0 and
   0.0 differ. *)
let rec json_equal a b =
  match (a, b) with
  | Json.Number x, Json.Number y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.List xs, Json.List ys ->
      List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> k = l && json_equal x y) xs ys
  | _ -> a = b

let gen_json =
  let open QCheck.Gen in
  let finite =
    map
      (fun b ->
        let f = Int64.float_of_bits b in
        if Float.is_finite f then f else -0.0)
      ui64
  in
  let bytes = string_size ~gen:char (int_range 0 12) in
  let scalar =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun f -> Json.Number f) finite;
        map (fun f -> Json.Number f) (oneofl [ 0.0; -0.0; 0.1; 40.0; 1e15; 5e-324 ]);
        map (fun s -> Json.String s) bytes ]
  in
  let rec tree d =
    if d = 0 then scalar
    else
      frequency
        [ (2, scalar);
          (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (tree (d - 1))));
          (1, map (fun kvs -> Json.Obj kvs) (list_size (int_range 0 4) (pair bytes (tree (d - 1))))) ]
  in
  tree 4

(* A rendered value cut short at a random offset or with one byte
   replaced, or plain random bytes. *)
let gen_json_input =
  let open QCheck.Gen in
  oneof
    [ string_size ~gen:char (int_range 0 24);
      (let* s = map Json.to_string gen_json in
       let n = String.length s in
       let* p = int_range 0 n in
       let* c = char in
       oneofl [ String.sub s 0 p; String.mapi (fun i x -> if i = p then c else x) s ]) ]

let json_tests =
  let open QCheck in
  [ Test.make ~name:"json round-trips bit-exactly" ~count:1000
      (make ~print:Json.to_string gen_json)
      (fun v ->
        match Json.of_string (Json.to_string v) with
        | Ok v' -> json_equal v v'
        | Error _ -> false);
    Test.make ~name:"json reader is total" ~count:2000
      (make ~print:String.escaped gen_json_input)
      (fun s ->
        ignore (Json.of_string s : (Json.t, string) result);
        true) ]

let t_json_rejects () =
  let nest k = String.make k '[' ^ String.make k ']' in
  List.iter
    (fun (what, s) ->
      match Json.of_string s with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "%s: %S read as %s" what s (Json.to_string v))
    [ ("empty input", "");
      ("trailing bytes", {|{"a":1} x|});
      ("two values", "1 2");
      ("plus sign", "+1");
      ("bare fraction", ".5");
      ("leading zero", "01");
      ("empty fraction", "1.");
      ("empty exponent", "1e");
      ("nan", "nan");
      ("infinity", "Infinity");
      ("raw tab in a string", "\"a\tb\"");
      ("raw newline in a string", "\"a\nb\"");
      ("bad \\u", {|"\u12g4"|});
      ("short \\u", {|"\u12"|});
      ("unknown escape", {|"\x41"|});
      ("unterminated string", {|"abc|});
      ("trailing comma", "[1,]");
      ("missing colon", {|{"a" 1}|});
      ("single quotes", "'a'");
      ("one level past the cap", nest (Json.max_depth + 1)) ];
  Alcotest.(check bool) "the cap itself reads" true
    (Result.is_ok (Json.of_string (nest Json.max_depth)))

let t_json_reads () =
  let reads s v =
    match Json.of_string s with
    | Ok v' -> Alcotest.(check bool) (Printf.sprintf "%S" s) true (json_equal v v')
    | Error m -> Alcotest.failf "%S rejected: %s" s m
  in
  reads " {\"a\" : [1, -0, 2.5e-3, true, null] }\n"
    (Json.Obj
       [ ("a", Json.List [ Number 1.0; Number (-0.0); Number 2.5e-3; Bool true; Null ]) ]);
  reads {|"é\u0001\/"|} (Json.String "\xc3\xa9\001/");
  reads {|"\ud83d\ude00"|} (Json.String "\xf0\x9f\x98\x80");
  reads {|"\ud83dx"|} (Json.String "?x");
  reads {|"\udc00\ud800"|} (Json.String "??");
  reads "\"\x7f\xff\"" (Json.String "\x7f\xff");
  Alcotest.(check (option string)) "first duplicate wins" (Some "1")
    (match Json.member "k" (Result.get_ok (Json.of_string {|{"k":"1","k":"2"}|})) with
    | Some (Json.String s) -> Some s
    | _ -> None)

let t_json_rendering () =
  let num x = Json.to_string (Json.Number x) in
  Alcotest.(check string) "0.1" "0.1" (num 0.1);
  Alcotest.(check string) "40." "40" (num 40.0);
  Alcotest.(check string) "-0." "-0" (num (-0.0));
  Alcotest.(check string) "integral below 1e15" "272521000" (num 272521000.0);
  Alcotest.(check string) "17 digits when needed" "0.30000000000000004" (num (0.1 +. 0.2));
  Alcotest.(check string) "nan" "null" (num Float.nan);
  Alcotest.(check string) "infinity" "null" (num Float.infinity);
  Alcotest.(check string) "neg_infinity" "null" (num Float.neg_infinity);
  Alcotest.(check string) "compact, escaped"
    {|{"a":[1,"q\"\\\n\r\t\u0001é"],"b":{}}|}
    (Json.to_string
       (Json.Obj
          [ ("a", Json.List [ Json.Number 1.0; Json.String "q\"\\\n\r\t\001é" ]);
            ("b", Json.Obj []) ]))

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
          quick "sample" t_rng_sample_without_replacement;
          quick "rng golden streams" t_rng_golden;
          quick "copy" t_rng_copy;
          quick "allocation-free draws" t_rng_alloc_free;
          quick "probe batch golden" t_probe_golden;
          quick "model parameters golden" t_model_golden ] );
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
          (qcheck_tests @ json_tests) );
      ( "json",
        [ quick "rejects" t_json_rejects;
          quick "reads" t_json_reads;
          quick "rendering" t_json_rendering ] ) ]
