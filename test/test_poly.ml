(* Polyhedral schedule tests: transformation algebra, decoding, and
   dependence-based legality. *)

let small_domain = [ ("co", 4); ("ci", 6); ("oh", 5); ("ow", 5) ]

let decode_all s =
  (* Enumerate the full loop space and decode every point. *)
  let extents = List.map Poly.loop_extent s.Poly.loops in
  let n = List.length extents in
  let extents = Array.of_list extents in
  let acc = ref [] in
  let values = Array.make n 0 in
  let rec go depth =
    if depth = n then acc := Poly.decode s (Array.copy values) :: !acc
    else
      for v = 0 to extents.(depth) - 1 do
        values.(depth) <- v;
        go (depth + 1)
      done
  in
  go 0;
  !acc

let sorted_points pts = List.sort compare pts

let check_same_points msg a b =
  Alcotest.(check bool) msg true (sorted_points a = sorted_points b)

let t_identity_schedule () =
  let s = Poly.of_domain small_domain in
  Alcotest.(check int) "loops" 4 (Poly.loop_count s);
  Alcotest.(check int) "points" (4 * 6 * 5 * 5) (Poly.points s);
  Alcotest.(check bool) "preserving" true (Poly.is_semantics_preserving s)

let t_interchange_preserves_points () =
  let s = Poly.of_domain small_domain in
  let s' = Poly.interchange s 0 1 in
  check_same_points "interchange enumerates same set" (decode_all s) (decode_all s');
  (* and the loop order really changed *)
  Alcotest.(check string) "outermost" "ci" (Poly.loop_names s').(0)

let t_split_preserves_points () =
  let s = Poly.of_domain small_domain in
  let s' = Poly.split s ~pos:1 ~factor:3 in
  Alcotest.(check int) "one more loop" 5 (Poly.loop_count s');
  check_same_points "split enumerates same set" (decode_all s) (decode_all s')

let t_split_indivisible_rejected () =
  let s = Poly.of_domain small_domain in
  Alcotest.check_raises "factor must divide" (Poly.Illegal "split: factor 4 does not divide extent 6")
    (fun () -> ignore (Poly.split s ~pos:1 ~factor:4))

let t_tile_moves_inner_innermost () =
  let s = Poly.of_domain small_domain in
  let s' = Poly.tile s ~pos:0 ~factor:2 in
  let names = Poly.loop_names s' in
  Alcotest.(check int) "loops" 5 (Array.length names);
  Alcotest.(check string) "inner tile last" "co" names.(4);
  check_same_points "tile enumerates same set" (decode_all s) (decode_all s')

let t_fuse_preserves_points () =
  let s = Poly.of_domain small_domain in
  let s' = Poly.fuse s ~pos:2 in
  Alcotest.(check int) "one fewer loop" 3 (Poly.loop_count s');
  Alcotest.(check int) "points unchanged" (Poly.points s) (Poly.points s');
  check_same_points "fuse enumerates same set" (decode_all s) (decode_all s')

let t_split_then_fuse_roundtrip () =
  let s = Poly.of_domain small_domain in
  let s' = Poly.fuse (Poly.split s ~pos:1 ~factor:2) ~pos:1 in
  check_same_points "roundtrip" (decode_all s) (decode_all s')

let t_bottleneck_restricts_domain () =
  let s = Poly.of_domain small_domain in
  let s' = Poly.bottleneck s ~iter:"co" ~factor:2 in
  Alcotest.(check int) "points halved" (Poly.points s / 2) (Poly.points s');
  Alcotest.(check int) "extent halved" 2 (Poly.iter_extent s' "co");
  Alcotest.(check bool) "flagged" false (Poly.is_semantics_preserving s');
  (* Enumerated co values form the prefix [0, 2). *)
  let decoded = decode_all s' in
  List.iter
    (fun pt ->
      match List.assoc_opt "co" pt with
      | Some v -> Alcotest.(check bool) "co in prefix" true (v < 2)
      | None -> Alcotest.fail "missing co")
    decoded

let t_bottleneck_after_split_hits_leading_digit () =
  let s = Poly.split (Poly.of_domain small_domain) ~pos:0 ~factor:2 in
  let s' = Poly.bottleneck s ~iter:"co" ~factor:2 in
  (* Leading digit had extent 2 (weight 2); shrinking it keeps only co < 2. *)
  Alcotest.(check int) "points halved" (Poly.points s / 2) (Poly.points s')

let t_group_shares_slice () =
  let s = Poly.of_domain small_domain in
  let s' = Poly.group s ~co:"co" ~ci:"ci" ~factor:2 in
  Alcotest.(check int) "points reduced by G" (Poly.points s / 2) (Poly.points s');
  (* Every enumerated point satisfies the slice constraint. *)
  List.iter
    (fun pt ->
      let co = List.assoc "co" pt and ci = List.assoc "ci" pt in
      Alcotest.(check int) "same slice" (co / 2) (ci / 3))
    (decode_all s')

let t_depthwise () =
  let s = Poly.of_domain [ ("co", 6); ("ci", 6); ("oh", 4); ("ow", 4) ] in
  let s' = Poly.depthwise s ~co:"co" ~ci:"ci" in
  Alcotest.(check int) "points / co" (Poly.points s / 6) (Poly.points s');
  List.iter
    (fun pt -> Alcotest.(check int) "diagonal" (List.assoc "co" pt) (List.assoc "ci" pt))
    (decode_all s')

let t_group_requires_divisibility () =
  let s = Poly.of_domain small_domain in
  Alcotest.(check bool) "indivisible grouping rejected" true
    (match Poly.group s ~co:"co" ~ci:"ci" ~factor:5 with
    | exception Poly.Illegal _ -> true
    | _ -> false)

let t_annotations () =
  let s = Poly.of_domain small_domain in
  let s = Poly.unroll s ~pos:3 ~factor:16 in
  let s = Poly.vectorize s ~pos:3 in
  let s = Poly.bind s ~pos:0 Poly.Block_x in
  let l0 = List.nth s.Poly.loops 0 and l3 = List.nth s.Poly.loops 3 in
  Alcotest.(check bool) "bound" true (l0.Poly.bind = Some Poly.Block_x);
  Alcotest.(check bool) "vectorized" true l3.Poly.vectorized;
  (* Unroll factor is clamped to the extent. *)
  Alcotest.(check int) "unroll clamped" 5 l3.Poly.unroll

(* --- Legality --------------------------------------------------------- *)

let reduction = Poly_legality.reduction_dependences [ "ci" ]

let t_identity_legal () =
  let s = Poly.of_domain small_domain in
  Alcotest.(check bool) "identity legal" true (Poly_legality.check s reduction)

let t_interchange_legal () =
  let s = Poly.interchange (Poly.of_domain small_domain) 0 1 in
  Alcotest.(check bool) "interchange legal" true (Poly_legality.check s reduction)

let t_split_legal () =
  let s = Poly.split (Poly.of_domain small_domain) ~pos:1 ~factor:3 in
  Alcotest.(check bool) "split legal" true (Poly_legality.check s reduction)

let t_tile_legal () =
  let s = Poly.tile (Poly.of_domain small_domain) ~pos:1 ~factor:2 in
  Alcotest.(check bool) "tile legal" true (Poly_legality.check s reduction)

let t_stencil_interchange_illegal () =
  (* A forward dependence on oh combined with a backward one on ow: legal in
     the original order, violated when oh and ow are interchanged.  This is
     the classic loop-interchange counterexample. *)
  let dep = [ { Poly_legality.distance = [ ("oh", 1); ("ow", -1) ]; dep_label = "stencil" } ] in
  let s = Poly.of_domain small_domain in
  Alcotest.(check bool) "original legal" true (Poly_legality.check s dep);
  let s' = Poly.interchange s 2 3 in
  Alcotest.(check bool) "interchanged illegal" false (Poly_legality.check s' dep);
  Alcotest.(check bool) "violations reported" true
    (Poly_legality.violations s' dep <> [])

let t_violations_report_point_and_label () =
  (* The diagnostics carry enough to replay the violation: each entry is a
     violated domain point plus the label of the broken dependence. *)
  let s = Poly.split (Poly.of_domain small_domain) ~pos:1 ~factor:3 in
  let s' = Poly.interchange s 1 2 in
  let vs = Poly_legality.violations s' reduction in
  Alcotest.(check bool) "violations found" true (vs <> []);
  List.iter
    (fun (point, label) ->
      Alcotest.(check string) "dependence label" "reduction over ci" label;
      (* The reported point is a real domain point... *)
      List.iter
        (fun (it, v) ->
          let extent = List.assoc it s'.Poly.domain in
          Alcotest.(check bool) "coordinate in range" true (0 <= v && v < extent))
        point;
      (* ...whose successor along the dependence the schedule runs early:
         time(p) must not be before time(p + d). *)
      let shifted = List.map (fun (it, v) -> if it = "ci" then (it, v + 1) else (it, v)) point in
      match Poly_legality.encode s' point, Poly_legality.encode s' shifted with
      | Some tp, Some tq -> Alcotest.(check bool) "reversed in time" true (tp >= tq)
      | _ -> Alcotest.fail "violation endpoints must both be enumerated")
    vs

let t_encode_inverse_of_decode () =
  let s =
    Poly.tile (Poly.split (Poly.of_domain small_domain) ~pos:1 ~factor:2) ~pos:0 ~factor:2
  in
  List.iter
    (fun pt ->
      match Poly_legality.encode s pt with
      | None -> Alcotest.fail "point should be enumerated"
      | Some loop_values ->
          Alcotest.(check bool) "roundtrip" true (Poly.decode s loop_values = pt))
    (decode_all s)

let t_encode_rejects_out_of_range () =
  let s = Poly.bottleneck (Poly.of_domain small_domain) ~iter:"co" ~factor:2 in
  Alcotest.(check bool) "cut point rejected" true
    (Poly_legality.encode s [ ("co", 3); ("ci", 0); ("oh", 0); ("ow", 0) ] = None)

let t_encode_rejects_cross_group () =
  let s = Poly.group (Poly.of_domain small_domain) ~co:"co" ~ci:"ci" ~factor:2 in
  (* co=0 is in slice 0 but ci=5 is in slice 1. *)
  Alcotest.(check bool) "cross-slice rejected" true
    (Poly_legality.encode s [ ("co", 0); ("ci", 5); ("oh", 0); ("ow", 0) ] = None);
  Alcotest.(check bool) "in-slice accepted" true
    (Poly_legality.encode s [ ("co", 0); ("ci", 2); ("oh", 0); ("ow", 0) ] <> None)

(* Spatial bottleneck as in §5.3: a chain of interchanges and bottlenecks. *)
let t_spatial_bottleneck_derivation () =
  let s = Poly.of_domain [ ("co", 4); ("ci", 4); ("oh", 8); ("ow", 8); ("kh", 3); ("kw", 3) ] in
  (* interchange spatial loops outermost *)
  let s = Poly.reorder s [| 2; 3; 0; 1; 4; 5 |] in
  let s = Poly.bottleneck s ~iter:"oh" ~factor:2 in
  let s = Poly.interchange s 0 1 in
  let s = Poly.bottleneck s ~iter:"ow" ~factor:2 in
  let s = Poly.reorder s [| 2; 3; 1; 0; 4; 5 |] in
  Alcotest.(check int) "oh halved" 4 (Poly.iter_extent s "oh");
  Alcotest.(check int) "ow halved" 4 (Poly.iter_extent s "ow");
  Alcotest.(check int) "4x fewer points"
    ((4 * 4 * 8 * 8 * 3 * 3) / 4)
    (Poly.points s)

let qcheck_tests =
  let open QCheck in
  let transform_gen =
    (* A random short pipeline of always-applicable classical transforms. *)
    small_list (int_range 0 5)
  in
  [ Test.make ~name:"random classical pipelines preserve the point set" ~count:60
      transform_gen
      (fun ops ->
        let s0 = Poly.of_domain [ ("co", 4); ("ci", 4); ("oh", 4); ("ow", 4) ] in
        let apply s code =
          let n = Poly.loop_count s in
          match code with
          | 0 -> Poly.interchange s 0 (n - 1)
          | 1 -> (try Poly.split s ~pos:0 ~factor:2 with Poly.Illegal _ -> s)
          | 2 -> if n >= 2 then Poly.fuse s ~pos:(n - 2) else s
          | 3 -> (try Poly.tile s ~pos:(n / 2) ~factor:2 with Poly.Illegal _ -> s)
          | 4 -> Poly.unroll s ~pos:(n - 1) ~factor:4
          | _ -> Poly.interchange s 0 (n / 2)
        in
        let s = List.fold_left apply s0 ops in
        Poly.points s = Poly.points s0 && Poly.is_semantics_preserving s);
    Test.make
      ~name:"reduction legality <=> digits in weight-descending schedule order"
      ~count:60 transform_gen
      (fun ops ->
        let s0 = Poly.of_domain [ ("co", 4); ("ci", 4); ("oh", 4); ("ow", 4) ] in
        let apply s code =
          let n = Poly.loop_count s in
          try
            match code with
            | 0 -> Poly.interchange s 0 (n - 1)
            | 1 -> Poly.split s ~pos:(1 mod n) ~factor:2
            | 2 -> if n >= 2 then Poly.fuse s ~pos:(n - 2) else s
            | 3 -> Poly.tile s ~pos:(2 mod n) ~factor:2
            | 4 -> Poly.interchange s (n / 2) (n - 1)
            | _ -> Poly.split s ~pos:0 ~factor:2
          with Poly.Illegal _ -> s
        in
        let s = List.fold_left apply s0 ops in
        (* Characterization: the accumulation dependence on "ci" is preserved
           exactly when ci's digits occur in weight-descending order in the
           flattened schedule (outer loops first, digits within a fused loop
           in list order). *)
        let weights_in_order =
          List.concat_map
            (fun (l : Poly.loop) ->
              List.concat_map
                (fun (d : Poly.digit) ->
                  if d.Poly.extent = 1 then []
                  else
                    List.filter_map
                      (fun (c : Poly.contrib) ->
                        if c.Poly.src = "ci" then Some c.Poly.weight else None)
                      d.Poly.contribs)
                l.Poly.digits)
            s.Poly.loops
        in
        let rec descending = function
          | a :: (b :: _ as rest) -> a > b && descending rest
          | _ -> true
        in
        Poly_legality.check s (Poly_legality.reduction_dependences [ "ci" ])
        = descending weights_in_order) ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "poly"
    [ ( "schedule",
        [ quick "identity" t_identity_schedule;
          quick "interchange" t_interchange_preserves_points;
          quick "split" t_split_preserves_points;
          quick "split indivisible" t_split_indivisible_rejected;
          quick "tile" t_tile_moves_inner_innermost;
          quick "fuse" t_fuse_preserves_points;
          quick "split-fuse roundtrip" t_split_then_fuse_roundtrip;
          quick "annotations" t_annotations ] );
      ( "neural",
        [ quick "bottleneck" t_bottleneck_restricts_domain;
          quick "bottleneck after split" t_bottleneck_after_split_hits_leading_digit;
          quick "group" t_group_shares_slice;
          quick "depthwise" t_depthwise;
          quick "group divisibility" t_group_requires_divisibility;
          quick "spatial bottleneck (sec 5.3)" t_spatial_bottleneck_derivation ] );
      ( "legality",
        [ quick "identity legal" t_identity_legal;
          quick "interchange legal" t_interchange_legal;
          quick "split legal" t_split_legal;
          quick "tile legal" t_tile_legal;
          quick "stencil interchange illegal" t_stencil_interchange_illegal;
          quick "violations report point and label" t_violations_report_point_and_label;
          quick "encode inverts decode" t_encode_inverse_of_decode;
          quick "encode rejects cut points" t_encode_rejects_out_of_range;
          quick "encode rejects cross-group" t_encode_rejects_cross_group ] );
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |]))
          qcheck_tests ) ]
