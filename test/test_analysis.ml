(* Static-analysis tests: direction-vector legality against the sampling
   oracle, shape/impl inference equivalence, the plan linter, the
   differential sanitizer and the search's static pre-filter. *)

let conv_domain =
  [ ("co", 4); ("ci", 6); ("oh", 5); ("ow", 5) ]

let reduction = Poly_legality.reduction_dependences [ "ci" ]

let has_code code diags =
  List.exists (fun d -> d.Diagnostic.d_code = code) diags

(* --- Direction-vector legality ---------------------------------------- *)

let check_decisive_agreement msg s deps =
  (* The static verdict must be decisive here and match the oracle. *)
  match Direction.to_bool (Direction.check s deps) with
  | None -> Alcotest.fail (msg ^ ": verdict should be decisive")
  | Some legal ->
      Alcotest.(check bool) msg (Poly_legality.check s deps) legal

let t_direction_identity_legal () =
  let s = Poly.of_domain conv_domain in
  Alcotest.(check bool) "identity legal" true
    (Direction.check s reduction = Direction.Legal)

let t_direction_split_interchange_illegal () =
  (* Splitting ci then running the inner half before the outer reverses the
     accumulation order: the classic strip-mine + interchange violation. *)
  let s = Poly.split (Poly.of_domain conv_domain) ~pos:1 ~factor:3 in
  let s' = Poly.interchange s 1 2 in
  Alcotest.(check bool) "pre-interchange legal" true
    (Direction.check s reduction = Direction.Legal);
  (match Direction.check s' reduction with
  | Direction.Illegal diags ->
      Alcotest.(check bool) "names the violation" true
        (has_code "dependence-violation" diags);
      Alcotest.(check bool) "names the dependence" true
        (List.exists (fun d -> d.Diagnostic.d_dep = Some "reduction over ci") diags);
      Alcotest.(check bool) "names a schedule dimension" true
        (List.exists (fun d -> d.Diagnostic.d_loop <> None) diags)
  | _ -> Alcotest.fail "interchanged split must be illegal");
  Alcotest.(check bool) "oracle agrees" false (Poly_legality.check s' reduction)

let t_direction_stencil_interchange () =
  let dep =
    [ { Poly_legality.distance = [ ("oh", 1); ("ow", -1) ]; dep_label = "stencil" } ]
  in
  let s = Poly.of_domain conv_domain in
  check_decisive_agreement "original order" s dep;
  check_decisive_agreement "interchanged" (Poly.interchange s 2 3) dep;
  Alcotest.(check bool) "interchange reverses the stencil" true
    (Direction.to_bool (Direction.check (Poly.interchange s 2 3) dep) = Some false)

let t_direction_vacuous_distance () =
  (* A distance at least the iterator extent pairs no two domain points:
     vacuously legal, whatever the schedule does. *)
  let dep = [ { Poly_legality.distance = [ ("ci", 6) ]; dep_label = "huge" } ] in
  let s = Poly.interchange (Poly.of_domain conv_domain) 0 1 in
  Alcotest.(check bool) "vacuously legal" true (Direction.check s dep = Direction.Legal);
  Alcotest.(check bool) "oracle agrees" true (Poly_legality.check s dep)

let t_direction_zero_distance () =
  let dep = [ { Poly_legality.distance = []; dep_label = "self" } ] in
  let s = Poly.of_domain conv_domain in
  match Direction.check s dep with
  | Direction.Illegal diags ->
      Alcotest.(check bool) "zero-distance diagnosed" true
        (has_code "zero-distance" diags);
      Alcotest.(check bool) "oracle agrees" false (Poly_legality.check s dep)
  | _ -> Alcotest.fail "a zero-distance dependence can never be satisfied"

let t_direction_grouped_schedule () =
  (* Shared group digits are joined across iterators; the analysis must
     stay decisive and agree with the oracle on the grouped schedule. *)
  let s = Poly.group (Poly.of_domain conv_domain) ~co:"co" ~ci:"ci" ~factor:2 in
  check_decisive_agreement "grouped schedule" s reduction;
  let s' = Poly.depthwise (Poly.of_domain [ ("co", 6); ("ci", 6); ("oh", 4); ("ow", 4) ])
      ~co:"co" ~ci:"ci" in
  check_decisive_agreement "depthwise schedule" s' reduction

(* --- Shape inference --------------------------------------------------- *)

let small_nest =
  Loop_nest.conv_nest_of_dims ~co:8 ~ci:8 ~oh:6 ~ow:6 ~k:3 ~stride:1 ~groups:1

let t_shape_apply_group () =
  let sh = Shape_infer.of_nest small_nest in
  (match Shape_infer.apply sh (Poly.N_group { factor = 2 }) with
  | Ok sh' -> Alcotest.(check int) "groups doubled" 2 sh'.Shape_infer.sh_groups
  | Error _ -> Alcotest.fail "divisible grouping must apply");
  match Shape_infer.apply sh (Poly.N_group { factor = 5 }) with
  | Ok _ -> Alcotest.fail "indivisible grouping must be rejected"
  | Error d ->
      Alcotest.(check string) "taxonomy" "indivisible-channel" d.Diagnostic.d_code

let t_shape_check_schedule_clean () =
  let s = Poly.bottleneck (Loop_nest.baseline_schedule small_nest) ~iter:"co" ~factor:2 in
  Alcotest.(check (list string)) "no findings" []
    (List.map Diagnostic.to_string (Shape_infer.check_schedule small_nest s))

let t_bounds_baseline_in_range () =
  let s = Loop_nest.baseline_schedule small_nest in
  let prog = Loop_nest.lower small_nest s in
  Alcotest.(check (list string)) "accesses in range" []
    (List.map Diagnostic.to_string (Shape_infer.bounds_check prog))

(* --- Plan linter ------------------------------------------------------- *)

let parse plan =
  match Plan_lint.of_string plan with
  | Ok steps -> steps
  | Error msg -> Alcotest.fail ("parse: " ^ msg)

let t_lint_parse_roundtrip () =
  let plan = "split@1:2;interchange@1,2;tile@0:2;unroll@5:4;depthwise" in
  Alcotest.(check string) "roundtrip" plan
    (Plan_lint.plan_to_string (parse plan));
  match Plan_lint.of_string "bogus@1" with
  | Ok _ -> Alcotest.fail "unknown step must not parse"
  | Error msg -> Alcotest.(check bool) "names the step" true
      (String.length msg > 0)

let t_lint_indivisible_tile () =
  let baseline = Loop_nest.baseline_schedule small_nest in
  let s, diags = Plan_types.lint baseline (parse "tile@2:5") in
  Alcotest.(check bool) "no schedule" true (s = None);
  Alcotest.(check bool) "indivisible-tile" true (has_code "indivisible-tile" diags)

let t_lint_warnings_still_apply () =
  let baseline = Loop_nest.baseline_schedule small_nest in
  let s, diags = Plan_types.lint baseline (parse "split@0:1;unroll@5:64") in
  Alcotest.(check bool) "schedule produced" true (s <> None);
  Alcotest.(check bool) "no-op warned" true (has_code "no-op" diags);
  Alcotest.(check bool) "unroll-overflow warned" true
    (has_code "unroll-overflow" diags);
  Alcotest.(check bool) "warnings are not errors" true
    (Diagnostic.errors diags = [])

let t_lint_bad_dimension () =
  let baseline = Loop_nest.baseline_schedule small_nest in
  let _, diags = Plan_types.lint baseline (parse "interchange@0,9") in
  Alcotest.(check bool) "bad-dimension" true (has_code "bad-dimension" diags)

(* --- Differential sanitizer -------------------------------------------- *)

let t_sanitizer_agrees () =
  let report = Sanitizer.run ~seed:5 ~n:60 () in
  Alcotest.(check int) "corpus size" 60 report.Sanitizer.rs_total;
  Alcotest.(check int) "no disagreements" 0
    (List.length report.Sanitizer.rs_disagreements);
  Alcotest.(check bool) "gate passes" true (Sanitizer.passed report);
  Alcotest.(check bool) "some plans were illegal" true
    (report.Sanitizer.rs_agree_illegal > 0)

(* --- Search integration ------------------------------------------------ *)

let setup () =
  let rng = Rng.create 77 in
  let model = Models.build (Models.resnet18 ()) rng in
  let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:16 in
  (rng, model, probe)

(* Valid and invalid implementations for a site; the degenerate factors
   ([Bottleneck 0], [Grouped groups], [Spatial_bottleneck 1],
   [Split_grouped (2, 2)]) are invalid everywhere. *)
let impl_corpus (site : Conv_impl.site) =
  [ Conv_impl.Full; Grouped 2; Grouped 3; Grouped 5;
    Grouped site.Conv_impl.in_channels; Grouped site.Conv_impl.groups;
    Bottleneck 0; Bottleneck 2; Bottleneck 3; Bottleneck 7;
    Bottleneck site.Conv_impl.out_channels; Depthwise_separable;
    Spatial_bottleneck 1; Spatial_bottleneck 2; Spatial_bottleneck 3;
    Spatial_bottleneck 5; Split_grouped (2, 4); Split_grouped (4, 2);
    Split_grouped (2, 2); Split_grouped (3, 6); Split_grouped (2, 8) ]

let t_candidate_finds_first_invalid_site () =
  (* The pre-Fisher filter passes every clean random pool and, on a pool
     corrupted at two sites with implementations [Conv_impl.valid] rejects
     there, names the first of them. *)
  let rng, model, _ = setup () in
  let n = Array.length model.Models.sites in
  for _ = 1 to 20 do
    let plans = Unified_search.random_plans rng model ~mutate_prob:0.5 in
    Alcotest.(check (option int)) "clean pool" None
      (Option.map fst (Static_check.candidate model plans));
    let corrupt i =
      let site = model.Models.sites.(i) in
      let bad =
        List.filter (fun impl -> not (Conv_impl.valid site impl)) (impl_corpus site)
      in
      plans.(i) <-
        Site_plan.make ~name:"corrupt" (List.nth bad (Rng.int rng (List.length bad)))
    in
    let i = Rng.int rng n and j = Rng.int rng n in
    corrupt i;
    corrupt j;
    match Static_check.candidate model plans with
    | Some (k, diags) ->
        Alcotest.(check int) "first corrupted site" (min i j) k;
        Alcotest.(check bool) "illegal-transformation" true
          (has_code "illegal-transformation" diags)
    | None -> Alcotest.fail "corrupted pool passed the filter"
  done

let t_analyze_model_illegal_plan () =
  (* The CLI contract behind `--analyze --plan`: a known-illegal plan yields
     error findings naming the violated dependence. *)
  let _, model, _ = setup () in
  let reports = Static_check.analyze_model ~plan:(parse "split@1:2;interchange@1,2") model in
  let errors = Static_check.report_errors reports in
  Alcotest.(check bool) "errors found" true (errors <> []);
  Alcotest.(check bool) "dependence named" true
    (List.exists (fun d -> d.Diagnostic.d_dep = Some "reduction over ci") errors);
  (* And the menu analysis of the stock model is clean of errors. *)
  let menu_errors = Static_check.report_errors (Static_check.analyze_model model) in
  Alcotest.(check (list string)) "menu clean"
    [] (List.map Diagnostic.to_string menu_errors)

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"static direction verdict agrees with the sampling oracle"
      ~count:40
      (pair (int_range 0 1000) (small_list (int_range 0 6)))
      (fun (seed, ops) ->
        let rng = Rng.create seed in
        let s0 =
          Poly.of_domain [ ("co", 8); ("ci", 6); ("oh", 4); ("ow", 4) ]
        in
        let apply s code =
          let n = Poly.loop_count s in
          try
            match code with
            | 0 -> Poly.interchange s (Rng.int rng n) (Rng.int rng n)
            | 1 -> Poly.split s ~pos:(Rng.int rng n) ~factor:2
            | 2 -> if n >= 2 then Poly.fuse s ~pos:(Rng.int rng (n - 1)) else s
            | 3 -> Poly.tile s ~pos:(Rng.int rng n) ~factor:3
            | 4 -> Poly.group s ~co:"co" ~ci:"ci" ~factor:2
            | 5 -> Poly.bottleneck s ~iter:"ci" ~factor:2
            | _ -> Poly.interchange s 0 (n - 1)
          with Poly.Illegal _ -> s
        in
        let s = List.fold_left apply s0 ops in
        let deps =
          Poly_legality.reduction_dependences [ "ci" ]
          @ [ { Poly_legality.distance = [ ("oh", 1); ("ow", -1) ];
                dep_label = "stencil" } ]
        in
        Direction.agrees (Direction.check s deps) (Poly_legality.check s deps)) ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "analysis"
    [ ( "direction",
        [ quick "identity legal" t_direction_identity_legal;
          quick "split+interchange illegal" t_direction_split_interchange_illegal;
          quick "stencil interchange" t_direction_stencil_interchange;
          quick "vacuous distance" t_direction_vacuous_distance;
          quick "zero distance" t_direction_zero_distance;
          quick "grouped schedules" t_direction_grouped_schedule ] );
      ( "shape",
        [ quick "apply group" t_shape_apply_group;
          quick "check schedule clean" t_shape_check_schedule_clean;
          quick "bounds in range" t_bounds_baseline_in_range ] );
      ( "lint",
        [ quick "parse roundtrip" t_lint_parse_roundtrip;
          quick "indivisible tile" t_lint_indivisible_tile;
          quick "warnings still apply" t_lint_warnings_still_apply;
          quick "bad dimension" t_lint_bad_dimension ] );
      ("sanitizer", [ quick "agrees with oracle" t_sanitizer_agrees ]);
      ( "search",
        [ quick "filter finds first invalid site" t_candidate_finds_first_invalid_site;
          quick "analyze finds illegal plan" t_analyze_model_illegal_plan ] );
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |]))
          qcheck_tests ) ]
