(* Core (npte) tests: site plans, the named sequences of sec 7.3 / 5.3 and
   their executable schedule chains, the compile pipeline and Table 1. *)

let model () = Models.build (Models.resnet34 ()) (Rng.create 21)

let a_site () =
  let m = model () in
  (* A mid-network site: 16 -> 16 channels, spatial 8. *)
  Models.scale_site m m.Models.sites.(8)

let t_plan_baseline () =
  let site = a_site () in
  Alcotest.(check bool) "baseline valid anywhere" true
    (Site_plan.valid site Site_plan.baseline);
  Alcotest.(check string) "name" "baseline" Site_plan.baseline.Site_plan.sp_name

let t_menu_nonempty () =
  let m = model () in
  Array.iter
    (fun site ->
      Alcotest.(check bool)
        (site.Conv_impl.site_label ^ " has options")
        true
        (Sequences.standard_menu site <> []))
    m.Models.sites

let t_sequences_have_plans () =
  let site = a_site () in
  List.iter
    (fun seq ->
      let plan = Sequences.plan seq in
      Alcotest.(check bool) (Sequences.name seq) true (Site_plan.valid site plan))
    (Sequences.standard_menu site)

let t_seq2_sets_unroll_hint () =
  let plan = Sequences.plan (Sequences.Seq2 { g = 2; unroll = 16 }) in
  Alcotest.(check bool) "unroll hint" true
    (plan.Site_plan.sp_hints.Autotune.h_unroll_co = Some 16)

let t_seq1_sets_split_hint () =
  let plan = Sequences.plan (Sequences.Seq1 { g = 2; split = 2 }) in
  Alcotest.(check bool) "split hint" true
    (plan.Site_plan.sp_hints.Autotune.h_spatial_split = Some 2)

let t_dominant_classification () =
  Alcotest.(check bool) "seq1" true (Sequences.is_dominant (Sequences.Seq1 { g = 2; split = 2 }));
  Alcotest.(check bool) "plain group" false (Sequences.is_dominant (Sequences.Plain_group 2))

(* Every named sequence's literal schedule chain must enumerate the MAC
   count its plan's impl accounting claims. *)
let t_schedules_match_mac_accounting () =
  let site =
    { Conv_impl.site_index = 0; in_channels = 16; out_channels = 16; kernel = 3;
      stride = 1; groups = 1; spatial_in = 8; site_label = "t" }
  in
  let nest =
    Loop_nest.conv_nest_of_dims ~co:16 ~ci:16 ~oh:8 ~ow:8 ~k:3 ~stride:1 ~groups:1
  in
  List.iter
    (fun seq ->
      match seq with
      | Sequences.Plain_bottleneck _ | Sequences.Plain_depthwise -> ()
      (* bottleneck adds a 1x1 expand and depthwise a pointwise conv in the
         realized network; their schedule chains cover only the main nest *)
      | _ ->
          let schedules = Sequences.schedules seq nest in
          let points = List.fold_left (fun acc s -> acc + Poly.points s) 0 schedules in
          let plan = Sequences.plan seq in
          let macs = Conv_impl.macs site plan.Site_plan.sp_impl in
          let expected =
            match seq with
            | Sequences.Seq1 _ | Sequences.Seq2 _ | Sequences.Seq3 _
            | Sequences.Plain_group _ | Sequences.Spatial_bneck _ ->
                macs
            | _ -> points
          in
          Alcotest.(check int) (Sequences.name seq) expected points)
    (Sequences.standard_menu site)

let t_spatial_bneck_chain_is_semantic_changing () =
  let nest = Loop_nest.conv_nest_of_dims ~co:8 ~ci:8 ~oh:8 ~ow:8 ~k:3 ~stride:1 ~groups:1 in
  match Sequences.schedules (Sequences.Spatial_bneck 2) nest with
  | [ s ] ->
      Alcotest.(check bool) "flagged" false (Poly.is_semantics_preserving s);
      Alcotest.(check int) "4x fewer points"
        (Poly.points (Loop_nest.baseline_schedule nest) / 4)
        (Poly.points s)
  | _ -> Alcotest.fail "one schedule expected"

(* --- Pipeline ---------------------------------------------------------- *)

let t_pipeline_baseline_positive () =
  let m = model () in
  List.iter
    (fun dev ->
      let ev = Pipeline.baseline ~ctx:(Eval_ctx.create ()) dev m in
      Alcotest.(check bool) (dev.Device.short_name ^ " latency > 0") true
        (ev.Pipeline.ev_latency_s > 0.0);
      Alcotest.(check bool) "params > 0" true (ev.ev_params > 0))
    Device.all

let t_pipeline_grouping_faster_and_smaller () =
  let m = model () in
  let dev = Device.i7 in
  let ctx = Eval_ctx.create () in
  let baseline = Pipeline.baseline ~ctx dev m in
  let plans =
    Array.map
      (fun site ->
        if Conv_impl.valid site (Conv_impl.Grouped 4) then
          Site_plan.make (Conv_impl.Grouped 4)
        else Site_plan.baseline)
      m.Models.sites
  in
  let ev = Pipeline.evaluate ~ctx dev m ~plans in
  Alcotest.(check bool) "faster" true (ev.Pipeline.ev_latency_s < baseline.Pipeline.ev_latency_s);
  Alcotest.(check bool) "smaller" true (ev.ev_params < baseline.ev_params);
  Alcotest.(check bool) "fewer macs" true (ev.ev_macs < baseline.ev_macs)

let t_pipeline_memoization_consistent () =
  let ctx = Eval_ctx.create () in
  let m = model () in
  let a = Pipeline.baseline ~ctx Device.i7 m in
  let cold = Eval_ctx.cost_stats ctx in
  let b = Pipeline.baseline ~ctx Device.i7 m in
  let warm = Eval_ctx.cost_stats ctx in
  Alcotest.(check (float 1e-12)) "memoized result identical"
    a.Pipeline.ev_latency_s b.Pipeline.ev_latency_s;
  Alcotest.(check bool) "second baseline adds hits" true
    (warm.Bounded_cache.cs_hits > cold.Bounded_cache.cs_hits);
  Alcotest.(check int) "second baseline adds no misses" cold.Bounded_cache.cs_misses
    warm.Bounded_cache.cs_misses

let t_pipeline_rejects_wrong_arity () =
  let m = model () in
  Alcotest.(check bool) "arity enforced" true
    (try
       ignore
         (Pipeline.evaluate ~ctx:(Eval_ctx.create ()) Device.i7 m
            ~plans:[| Site_plan.baseline |]);
       false
     with Nas_error.Fail (Nas_error.Shape_mismatch _) -> true)

let t_of_impls_roundtrip () =
  let m = model () in
  let plans = Pipeline.of_impls m in
  Alcotest.(check int) "arity" (Array.length m.Models.sites) (Array.length plans);
  Array.iteri
    (fun i p ->
      Alcotest.(check bool) "impl preserved" true
        (p.Site_plan.sp_impl = m.Models.impls.(i)))
    plans

(* --- Table 1 ----------------------------------------------------------- *)

let t_table1_rows () =
  Alcotest.(check int) "11 primitives" 11 (List.length Table1.rows);
  let cats =
    List.sort_uniq compare (List.map (fun r -> r.Table1.category) Table1.rows)
  in
  Alcotest.(check int) "three categories" 3 (List.length cats)

let t_table1_demonstrations () =
  List.iter
    (fun row ->
      match row.Table1.opt_name with
      | "prefetch" -> () (* annotation-only: no demo *)
      | _ ->
          Alcotest.(check bool) (row.opt_name ^ " demo") true
            (Table1.demonstrate row <> None))
    Table1.rows

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "npte"
    [ ( "plans",
        [ quick "baseline" t_plan_baseline;
          quick "menus non-empty" t_menu_nonempty;
          quick "sequence plans valid" t_sequences_have_plans;
          quick "seq2 unroll hint" t_seq2_sets_unroll_hint;
          quick "seq1 split hint" t_seq1_sets_split_hint;
          quick "dominance" t_dominant_classification ] );
      ( "sequences",
        [ quick "schedule MACs = plan MACs" t_schedules_match_mac_accounting;
          quick "spatial bottleneck chain" t_spatial_bneck_chain_is_semantic_changing ] );
      ( "pipeline",
        [ quick "baseline positive" t_pipeline_baseline_positive;
          quick "grouping faster+smaller" t_pipeline_grouping_faster_and_smaller;
          quick "memoization" t_pipeline_memoization_consistent;
          quick "arity" t_pipeline_rejects_wrong_arity;
          quick "of_impls" t_of_impls_roundtrip ] );
      ( "table1",
        [ quick "rows" t_table1_rows; quick "demonstrations" t_table1_demonstrations ] ) ]
