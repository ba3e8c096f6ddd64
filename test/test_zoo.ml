(* Registry differential tests: the block algebra must reproduce the six
   paper presets bit-identically (structure snapshots at every scale and
   seeded search results), every registered family must build with
   internally consistent sites, and the CLI/protocol network validation
   must be driven by the registry. *)

(* Golden structure of the six paper presets, recorded before the block
   algebra existed: (name, scale, sites, macs, nodes, params, mult_c,
   mult_s, digest).  Any drift here is a change to the networks the
   experiments run on and must be deliberate. *)
let legacy_golden =
  [ ("resnet18", `Search, 16, 2218624, 76, 175192, 8, 2, "07439b892cb62769d072e1bee72185c3");
    ("resnet18", `Train, 16, 555136, 76, 175192, 8, 4, "07439b892cb62769d072e1bee72185c3");
    ("resnet18", `Imagenet, 16, 2219264, 76, 175832, 8, 7, "de7d54cc47c2a49794999306b91bd71c");
    ("resnet34", `Search, 32, 4577920, 140, 333016, 8, 2, "b76a7231a11b5754b66e079325560b28");
    ("resnet34", `Train, 32, 1144960, 140, 333016, 8, 4, "b76a7231a11b5754b66e079325560b28");
    ("resnet34", `Imagenet, 32, 4578560, 140, 333656, 8, 7, "65caa7a6f63d6e633f8321896ba78ef7");
    ("resnext29", `Search, 9, 5561600, 102, 143576, 8, 2, "0f357d592289bbb7165d3c8281e17130");
    ("resnext29", `Train, 9, 1391360, 102, 143576, 8, 4, "0f357d592289bbb7165d3c8281e17130");
    ("resnext29", `Imagenet, 9, 22243840, 102, 144856, 8, 1, "cc686fe69c260f4d6efcf7d9256310d1");
    ("densenet161", `Search, 58, 5425962, 221, 143844, 6, 2, "04c75c8969a5ca6c2e88c4ae4c105a83");
    ("densenet161", `Train, 58, 1357458, 221, 143844, 6, 4, "04c75c8969a5ca6c2e88c4ae4c105a83");
    ("densenet161", `Imagenet, 58, 21701268, 221, 145134, 6, 7, "4ce98e8f90d28fbbd53441c26935858f");
    ("densenet169", `Search, 50, 2816328, 193, 63309, 5, 2, "7bbbbbb9dc4b7e7eab8123f8be334766");
    ("densenet169", `Train, 50, 704712, 193, 63309, 5, 4, "7bbbbbb9dc4b7e7eab8123f8be334766");
    ("densenet169", `Imagenet, 50, 11263632, 193, 64149, 5, 7, "40b0add166c1bb8e7db506ea84f28b7b");
    ("densenet201", `Search, 58, 3067008, 221, 80817, 5, 2, "c35cffbbdc91c3a446d45c2a3ff4bb02");
    ("densenet201", `Train, 58, 767472, 221, 80817, 5, 4, "c35cffbbdc91c3a446d45c2a3ff4bb02");
    ("densenet201", `Imagenet, 58, 12266112, 221, 81777, 5, 7, "793c29a911c43c1bb01a1acb33170026") ]

let scale_name = function
  | `Search -> "search"
  | `Train -> "train"
  | `Imagenet -> "imagenet"

let t_legacy_structure () =
  List.iter
    (fun (name, scale, sites, macs, nodes, params, mc, ms, digest) ->
      let where what = Printf.sprintf "%s/%s %s" name (scale_name scale) what in
      let spec = Option.get (Zoo.spec ~scale name) in
      let m = Models.build spec (Rng.create 42) in
      Alcotest.(check int) (where "sites") sites (Array.length m.Models.sites);
      Alcotest.(check int) (where "macs") macs (Models.total_macs m);
      Alcotest.(check int) (where "nodes") nodes (Graph.node_count m.Models.graph);
      Alcotest.(check int) (where "params") params (Models.conv_params m);
      Alcotest.(check int) (where "mult_c") mc m.Models.cost_mult_c;
      Alcotest.(check int) (where "mult_s") ms m.Models.cost_mult_s;
      Alcotest.(check string) (where "digest") digest (Models.graph_digest m))
    legacy_golden

(* Seeded 16-candidate searches on the paper presets: the winning plan
   assignment (as an MD5 of the plans signature), the predicted latency and
   the Fisher rejection count must all survive the refactor bit-for-bit. *)
let search_golden =
  [ ("resnet18", "1.685597094e-03", 1, "f11870eedd8467305008a19bef24cdfe");
    ("resnet34", "3.160694066e-03", 6, "84f5c56b7c462bbd123ea955dade6bf9");
    ("resnext29", "1.473218612e-02", 14, "5bfa6e31b28d7c32eae38c19244bb7d9");
    ("densenet161", "4.745407484e-03", 10, "d9c3725809aab60a5e9eca3ab4a46e92");
    ("densenet169", "1.782710559e-03", 8, "c2379415691a79124383c75400343608");
    ("densenet201", "1.987449201e-03", 3, "d9c3725809aab60a5e9eca3ab4a46e92") ]

let seeded_search name ~candidates =
  let rng = Rng.create 42 in
  let m = Models.build (Option.get (Zoo.spec name)) rng in
  let probe =
    Exp_common.probe_batch (Rng.split rng) ~input_size:m.Models.input_size
  in
  ( m,
    Unified_search.search ~candidates ~ctx:(Eval_ctx.create ())
      ~rng:(Rng.split rng) ~device:Device.i7 ~probe m )

let t_legacy_search () =
  List.iter
    (fun (name, latency, rejected, sig_md5) ->
      let _, r = seeded_search name ~candidates:16 in
      Alcotest.(check string)
        (name ^ " best latency") latency
        (Printf.sprintf "%.9e" r.Unified_search.r_best.Unified_search.cd_latency_s);
      Alcotest.(check int) (name ^ " rejected") rejected r.r_rejected;
      Alcotest.(check string) (name ^ " winning plans") sig_md5
        (Digest.to_hex
           (Digest.string (Unified_search.plans_signature r.r_best.cd_plans))))
    search_golden

let t_registry_coverage () =
  Alcotest.(check bool) "registry is non-trivial" true (List.length Zoo.all >= 9);
  List.iter
    (fun (e : Zoo.entry) ->
      List.iter
        (fun scale ->
          let spec = e.ze_spec scale in
          Alcotest.(check (list string))
            (e.ze_name ^ " spec validates") [] (Block.validate spec);
          let m = Models.build spec (Rng.create 42) in
          Array.iter
            (fun s ->
              Alcotest.(check int)
                (e.ze_name ^ " site " ^ s.Conv_impl.site_label ^ " consistent")
                0
                (List.length (Shape_infer.check_site s)))
            m.Models.sites;
          let logits =
            Models.forward_logits m
              (Tensor.rand_normal (Rng.create 7)
                 [| 1; m.Models.input_channels; m.Models.input_size;
                    m.Models.input_size |]
                 ~mean:0.0 ~std:1.0)
          in
          Alcotest.(check (array int))
            (e.ze_name ^ " logits shape")
            [| 1; spec.Block.sp_num_classes |]
            (Tensor.shape logits))
        [ `Search; `Train; `Imagenet ];
      (* Pinned snapshot agrees with a fresh build. *)
      match e.ze_snapshot with
      | None -> Alcotest.fail (e.ze_name ^ " has no recorded snapshot")
      | Some s ->
          let m = Models.build (e.ze_spec `Search) (Rng.create 42) in
          Alcotest.(check int) (e.ze_name ^ " snap sites") s.Zoo.zs_sites
            (Array.length m.Models.sites);
          Alcotest.(check int) (e.ze_name ^ " snap macs") s.Zoo.zs_macs
            (Models.total_macs m);
          Alcotest.(check string) (e.ze_name ^ " snap digest") s.Zoo.zs_digest
            (Models.graph_digest m))
    Zoo.all

let t_new_families_searchable () =
  (* Every non-paper family runs the unified search end-to-end and finds a
     candidate at least as fast as the baseline. *)
  List.iter
    (fun (e : Zoo.entry) ->
      let _, r = seeded_search e.ze_name ~candidates:8 in
      Alcotest.(check bool)
        (e.ze_name ^ " explored") true
        (r.Unified_search.r_explored >= 8);
      Alcotest.(check bool)
        (e.ze_name ^ " best no slower than baseline")
        true
        (r.r_best.Unified_search.cd_latency_s
        <= r.r_baseline.Pipeline.ev_latency_s +. 1e-12))
    (List.filter (fun e -> not e.Zoo.ze_paper) Zoo.all)

let t_cost_mults_explicit () =
  (* Multipliers come from the spec's explicit paper-scale dimensions, not
     from parsing the family name: renaming a spec must not change them. *)
  List.iter
    (fun name ->
      let spec = Option.get (Zoo.spec name) in
      let renamed = { spec with Block.sp_name = "x_" ^ name ^ "_y" } in
      let mc, ms = Models.cost_mults spec in
      let mc', ms' = Models.cost_mults renamed in
      Alcotest.(check (pair int int))
        (name ^ " mults survive renaming") (mc, ms) (mc', ms'))
    Zoo.names;
  (* The densenet161 oddity that motivated this: growth 48 at paper scale
     vs 32 for the deeper variants, carried explicitly now. *)
  Alcotest.(check (pair int int))
    "densenet161 mults" (6, 2)
    (Models.cost_mults (Option.get (Zoo.spec "densenet161")));
  Alcotest.(check (pair int int))
    "densenet169 mults" (5, 2)
    (Models.cost_mults (Option.get (Zoo.spec "densenet169")))

let t_protocol_network_validation () =
  (* The protocol accepts exactly the registry. *)
  List.iter
    (fun name ->
      match
        Protocol.parse
          (Printf.sprintf "{\"op\": \"search\", \"id\": \"t\", \"network\": %S}" name)
      with
      | Ok (Protocol.Search rq) ->
          Alcotest.(check string) (name ^ " accepted") name rq.Protocol.rq_network
      | Ok _ -> Alcotest.fail (name ^ ": wrong message kind")
      | Error m -> Alcotest.fail (name ^ ": rejected: " ^ m))
    Zoo.names;
  match Protocol.parse "{\"op\": \"search\", \"id\": \"t\", \"network\": \"vgg16\"}" with
  | Ok _ -> Alcotest.fail "unknown network accepted"
  | Error m ->
      List.iter
        (fun name ->
          let has_sub =
            let ln = String.length name and lm = String.length m in
            let rec go i = i + ln <= lm && (String.sub m i ln = name || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool) ("error lists " ^ name) true has_sub)
        Zoo.names

let () =
  Alcotest.run "zoo"
    [ ( "registry",
        [ Alcotest.test_case "legacy structure pinned" `Quick t_legacy_structure;
          Alcotest.test_case "legacy searches pinned" `Slow t_legacy_search;
          Alcotest.test_case "every entry builds and analyzes" `Slow t_registry_coverage;
          Alcotest.test_case "new families searchable" `Slow t_new_families_searchable;
          Alcotest.test_case "cost mults are explicit" `Quick t_cost_mults_explicit;
          Alcotest.test_case "protocol validates networks" `Quick t_protocol_network_validation ] ) ]
