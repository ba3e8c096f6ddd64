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
    (Conv_impl.valid site Site_plan.baseline.Site_plan.sp_impl);
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
      Alcotest.(check bool) (Sequences.name seq) true
        (Conv_impl.valid site plan.Site_plan.sp_impl))
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

(* --- Golden menus ------------------------------------------------------ *)

(* Every site menu of every registered family at every scale (build seed
   42), pinned as one MD5 per family and scale over the names of
   [Sequences.standard_menu], [Sequences.typed_menu] and
   [Conv_impl.all_options] at each site, in site order.  Recorded before the
   menus were derived from [Conv_impl.valid]; any drift is a change to the
   search space and must be deliberate. *)
let menu_digest (e : Zoo.entry) scale =
  let m = Models.build (e.Zoo.ze_spec scale) (Rng.create 42) in
  let buf = Buffer.create 4096 in
  Array.iter
    (fun site ->
      let line names = Buffer.add_string buf (String.concat "," names ^ "\n") in
      line (List.map Sequences.name (Sequences.standard_menu site));
      line (List.map Sequences.name (Sequences.typed_menu site));
      line (List.map Conv_impl.to_string (Conv_impl.all_options site)))
    m.Models.sites;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let golden_menus =
  [
    ("resnet18", "search", "b9210976980d03e291dc640f066d7af7");
    ("resnet18", "train", "f12e34f1d86e8d2711f5db9c5af6e3af");
    ("resnet18", "imagenet", "b9210976980d03e291dc640f066d7af7");
    ("resnet34", "search", "550458749f3c8d6c63cabb5c85e7b89d");
    ("resnet34", "train", "bd7d5ca1ded97f6a5369c0dd0356c2cd");
    ("resnet34", "imagenet", "550458749f3c8d6c63cabb5c85e7b89d");
    ("resnext29", "search", "c2d67bbce8ca5785f126e1d0914fdef9");
    ("resnext29", "train", "56a5601fcd381d0816994aedb712de52");
    ("resnext29", "imagenet", "57ad6f684b9fe263e93b0ce909567a4a");
    ("densenet161", "search", "bc458fcdfcd80591fc08bc17101eea30");
    ("densenet161", "train", "e23de3d0181b39ec63a0aa8ff7f14162");
    ("densenet161", "imagenet", "a7f0e4e20e0aa0e27094fd683235a1f0");
    ("densenet169", "search", "b72229985337418e360f6e5223fecf5b");
    ("densenet169", "train", "ac5a8a592f12c460520b018338cb3b43");
    ("densenet169", "imagenet", "e6ac4e84ead6301d8ec260cc775edc3b");
    ("densenet201", "search", "6c4fc573ba480bab749d300517cff09e");
    ("densenet201", "train", "432820f09467a907e65c6df1049cf306");
    ("densenet201", "imagenet", "c2f34ebf48bc3a449064cbd4fd387b06");
    ("wideresnet16_4", "search", "e005a42066d0bdbf1d0a31d280e6abbe");
    ("wideresnet16_4", "train", "234992aaae100411ddef21c845bdbf1f");
    ("wideresnet16_4", "imagenet", "93c9c355b3b673d71db76bbd3d10c828");
    ("mobilenet_small", "search", "4f121ba7b4440b769db36f62f2da43ce");
    ("mobilenet_small", "train", "de21f658042361d923ec2e171134f9d7");
    ("mobilenet_small", "imagenet", "d6c50fa82161b007a75b02dbadce0e9b");
    ("resnext29_c4", "search", "be40f5f3cb199241da665adb6ae457af");
    ("resnext29_c4", "train", "df079892552b31ec56907280487a83ef");
    ("resnext29_c4", "imagenet", "1aea81331c63b6f22ba1201b26090959");
    ("se_resnet14", "search", "f0eea33495ebfda6aa97399c4a75f745");
    ("se_resnet14", "train", "2a9399f2dc463d8a90bbafd795e95de3");
    ("se_resnet14", "imagenet", "1a0c36791c170e271582737c2ebf0c23");
    ("resnet14_dil2", "search", "9d0b4cdd5a0de161048ac351dd09e413");
    ("resnet14_dil2", "train", "cc1077c173331250356c4054656e5095");
    ("resnet14_dil2", "imagenet", "a581d0e751198e1ff2ee9eeb36cc2790") ]

let scales = [ (`Search, "search"); (`Train, "train"); (`Imagenet, "imagenet") ]

(* Check a table of per-family, per-scale digests against [digest]. *)
let check_golden what table digest =
  Alcotest.(check int) "every family and scale pinned"
    (3 * List.length Zoo.all) (List.length table);
  List.iter
    (fun (name, sname, expected) ->
      let e = Option.get (Zoo.find name) in
      let scale = fst (List.find (fun (_, n) -> n = sname) scales) in
      Alcotest.(check string) (name ^ "/" ^ sname ^ " " ^ what) expected (digest e scale))
    table

let t_golden_menus () = check_golden "menus" golden_menus menu_digest

(* Every derivation [Sequences.schedules] makes, pinned as one MD5 per
   family and scale (build seed 42): for each site, in site order, each
   entry of [standard_menu] followed by the [typed_menu] entries not already
   in it, derived over the site's ungrouped nest (the nest [--analyze]
   derives over), contributes the [Poly.pp] of every schedule it returns, or
   the [Poly.Illegal] message where it raises.  Recorded while the chains
   were still hand-written [Poly] calls. *)
let derivation_digest (e : Zoo.entry) scale =
  let m = Models.build (e.Zoo.ze_spec scale) (Rng.create 42) in
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  Array.iter
    (fun (site : Conv_impl.site) ->
      let so = Conv_impl.spatial_out site in
      let nest =
        Loop_nest.conv_nest_of_dims ~co:site.Conv_impl.out_channels
          ~ci:site.Conv_impl.in_channels ~oh:so ~ow:so ~k:site.Conv_impl.kernel
          ~stride:site.Conv_impl.stride ~groups:1
      in
      let standard = Sequences.standard_menu site in
      let typed =
        List.filter (fun s -> not (List.mem s standard)) (Sequences.typed_menu site)
      in
      List.iter
        (fun seq ->
          Format.fprintf ppf "%s:@." (Sequences.name seq);
          match Sequences.schedules seq nest with
          | ss -> List.iter (fun s -> Format.fprintf ppf "%a@." Poly.pp s) ss
          | exception Poly.Illegal msg -> Format.fprintf ppf "illegal: %s@." msg)
        (standard @ typed))
    m.Models.sites;
  Format.pp_print_flush ppf ();
  Digest.to_hex (Digest.string (Buffer.contents buf))

let golden_derivations =
  [
    ("resnet18", "search", "020ec60ffa328fe9a96c00a197381cff");
    ("resnet18", "train", "09ed6f6cacdb9ae8dbf059ec542a4b1a");
    ("resnet18", "imagenet", "020ec60ffa328fe9a96c00a197381cff");
    ("resnet34", "search", "fb62586c6051dfef201cd7111085b7d7");
    ("resnet34", "train", "d2ae77b6cb2451768561dc0c1dc34887");
    ("resnet34", "imagenet", "fb62586c6051dfef201cd7111085b7d7");
    ("resnext29", "search", "69c828c39ec3b2c234507ac941b816d7");
    ("resnext29", "train", "0d6997e7c0bf482f2717cb84fe0c8dc8");
    ("resnext29", "imagenet", "431c87821fc5854fbac60b60ac7a9802");
    ("densenet161", "search", "8d1005ecc4e89c0d4338396d59ec2f39");
    ("densenet161", "train", "7f3e088830712a8a3b2f281727f5408e");
    ("densenet161", "imagenet", "d9ea3182d03da66fdaecd85060d794a0");
    ("densenet169", "search", "92ce192fee3cae70ce4050dd0b636e54");
    ("densenet169", "train", "9b9dd22d7d7cfb79d60a492de7430dcd");
    ("densenet169", "imagenet", "8c7f6d49def12b4de172e224b8df1ea4");
    ("densenet201", "search", "8ebc29f32729d27284ea76cfe6bf1be7");
    ("densenet201", "train", "b5cec913e1ca3bf9ac3695741af6b108");
    ("densenet201", "imagenet", "33cdb8e7e0a44d9c376f5a39c6f52df6");
    ("wideresnet16_4", "search", "dd15f93b5e1c9dc16da1c4e5b0df12a0");
    ("wideresnet16_4", "train", "97d3ac935c41abec01aa34386686eedd");
    ("wideresnet16_4", "imagenet", "d63ce52fb8ffcb4e0df13120d67d7e84");
    ("mobilenet_small", "search", "15d9d92dbf2c99df61a560e9a836c420");
    ("mobilenet_small", "train", "741b1408ca375326d877aa5a904de256");
    ("mobilenet_small", "imagenet", "611a91c3cfab3ab0baa5142eb1afc134");
    ("resnext29_c4", "search", "99a5e7004caaec82cba2cacaa3cbea04");
    ("resnext29_c4", "train", "e0335fed719445533ba6715e4548ba98");
    ("resnext29_c4", "imagenet", "9c796faa003e750441bdfcda28b86bc1");
    ("se_resnet14", "search", "12c0c21126e81594a5ac8c30ac7dcb17");
    ("se_resnet14", "train", "e89f74bbfe1679ff5b9c56bdf6bdf584");
    ("se_resnet14", "imagenet", "b392ecb2e0b73ca67c43cfc0d8e7ced4");
    ("resnet14_dil2", "search", "ec78b4d6c30879e31e1f6ab4d4352cd6");
    ("resnet14_dil2", "train", "5a5aeab75e2e5a0533ce49221485237c");
    ("resnet14_dil2", "imagenet", "081d5f904678b68f14f4f3f4f9285b5f") ]

let t_golden_derivations () =
  check_golden "derivations" golden_derivations derivation_digest

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
          quick "spatial bottleneck chain" t_spatial_bneck_chain_is_semantic_changing;
          quick "golden menus" t_golden_menus;
          quick "golden derivations" t_golden_derivations ] );
      ( "pipeline",
        [ quick "baseline positive" t_pipeline_baseline_positive;
          quick "grouping faster+smaller" t_pipeline_grouping_faster_and_smaller;
          quick "memoization" t_pipeline_memoization_consistent;
          quick "arity" t_pipeline_rejects_wrong_arity;
          quick "of_impls" t_of_impls_roundtrip ] );
      ( "table1",
        [ quick "rows" t_table1_rows; quick "demonstrations" t_table1_demonstrations ] ) ]
