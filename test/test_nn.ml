(* Neural-network layer-graph tests: graph mechanics, model zoo structure,
   gradient flow, optimizer behaviour, and a real end-to-end training run. *)

let rng () = Rng.create 99

let t_graph_forward_shapes () =
  let model = Models.build (Models.resnet34 ()) (rng ()) in
  let input = Tensor.rand_normal (rng ()) [| 2; 3; 16; 16 |] ~mean:0.0 ~std:1.0 in
  let logits = Models.forward_logits model input in
  Alcotest.(check (array int)) "logit shape" [| 2; 10 |] (Tensor.shape logits)

let t_graph_rejects_bad_topology () =
  let node i inputs = { Graph.id = i; op = Graph.Relu; inputs; label = "x" } in
  Alcotest.(check bool) "forward reference rejected" true
    (try
       ignore (Graph.make [| node 0 [ 1 ]; node 1 [] |] ~output_id:1);
       false
     with Assert_failure _ -> true)

let t_residual_add_gradient () =
  (* Gradient flows through both branches of an Add. *)
  let b = Builder.create (rng ()) in
  let inp = Builder.input b in
  let c1 = Builder.conv_bn_relu b ~label:"a" ~in_channels:2 ~out_channels:2 ~kernel:3 ~stride:1 inp in
  let sum = Builder.add b ~label:"add" Graph.Add [ c1; inp ] in
  let gap = Builder.add b ~label:"gap" Graph.Global_avg_pool [ sum ] in
  let fc = Builder.linear_layer b ~label:"fc" ~in_features:2 ~out_features:3 gap in
  let g = Builder.finish b ~output:fc in
  let images = Tensor.rand_normal (rng ()) [| 2; 2; 4; 4 |] ~mean:0.0 ~std:1.0 in
  let _, loss = Train.forward_backward_graph g { Train.images; labels = [| 0; 1 |] } in
  Alcotest.(check bool) "loss finite" true (Float.is_finite loss);
  let params = Graph.params g in
  let total_grad =
    List.fold_left (fun acc p -> acc +. Tensor.sq_norm p.Layer.p_grad) 0.0 params
  in
  Alcotest.(check bool) "gradients non-zero" true (total_grad > 0.0)

let t_site_counts () =
  (* ResNet-34 basic-block structure: 2 sites per block, 16 blocks. *)
  Alcotest.(check int) "resnet34 sites" 32 (Models.site_count (Models.resnet34 ()));
  Alcotest.(check int) "resnet18 sites" 16 (Models.site_count (Models.resnet18 ()));
  (* ResNeXt-29: 3 stages x 3 blocks, one grouped 3x3 per block. *)
  Alcotest.(check int) "resnext29 sites" 9 (Models.site_count (Models.resnext29 ()));
  (* DenseNet: 2 sites per dense layer. *)
  Alcotest.(check int) "densenet161 sites"
    (2 * (3 + 6 + 12 + 8))
    (Models.site_count (Models.densenet161 ()))

let t_resnext_baseline_grouped () =
  let model = Models.build (Models.resnext29 ()) (rng ()) in
  Array.iter
    (fun site -> Alcotest.(check int) "cardinality" 2 site.Conv_impl.groups)
    model.Models.sites

let t_fisher_nodes_align () =
  let model = Models.build (Models.densenet161 ()) (rng ()) in
  Alcotest.(check int) "one fisher node per site"
    (Array.length model.Models.sites)
    (Array.length model.Models.fisher_node_ids)

let t_rebuild_changes_structure () =
  let model = Models.build (Models.resnet34 ()) (rng ()) in
  let impls = Array.map (fun _ -> Conv_impl.Full) model.Models.sites in
  impls.(0) <- Conv_impl.Bottleneck 2;
  let m2 = Models.rebuild model (rng ()) impls in
  Alcotest.(check bool) "more nodes (extra 1x1)" true
    (Graph.node_count m2.Models.graph > Graph.node_count model.Models.graph);
  (* Forward still works and shapes are preserved. *)
  let input = Tensor.rand_normal (rng ()) [| 1; 3; 16; 16 |] ~mean:0.0 ~std:1.0 in
  Alcotest.(check (array int)) "logits" [| 1; 10 |]
    (Tensor.shape (Models.forward_logits m2 input))

let t_every_impl_builds_and_runs () =
  let model = Models.build (Models.resnet34 ()) (rng ()) in
  let input = Tensor.rand_normal (rng ()) [| 1; 3; 16; 16 |] ~mean:0.0 ~std:1.0 in
  List.iter
    (fun impl ->
      let impls =
        Array.map
          (fun s -> if Conv_impl.valid s impl then impl else Conv_impl.Full)
          model.Models.sites
      in
      let m = Models.rebuild model (rng ()) impls in
      let logits = Models.forward_logits m input in
      Alcotest.(check (array int))
        (Conv_impl.to_string impl) [| 1; 10 |] (Tensor.shape logits))
    [ Conv_impl.Grouped 2; Conv_impl.Grouped 4; Conv_impl.Bottleneck 2;
      Conv_impl.Depthwise_separable; Conv_impl.Spatial_bottleneck 2;
      Conv_impl.Split_grouped (2, 4) ]

let t_label_addressed_weights () =
  (* Two builds from the same seed share weights of common layers even when
     one site's structure differs. *)
  let config = Models.resnet34 () in
  let a = Models.build config (Rng.create 5) in
  let impls = Array.map (fun _ -> Conv_impl.Full) a.Models.sites in
  impls.(3) <- Conv_impl.Grouped 2;
  let b = Models.build ~impls config (Rng.create 5) in
  let conv_weights m =
    List.filter_map
      (fun p ->
        if String.length p.Layer.p_name > 2 && Tensor.ndim p.Layer.p_value = 4 then
          Some (p.Layer.p_name, p.p_value)
        else None)
      (Graph.params m.Models.graph)
  in
  let wa = conv_weights a and wb = conv_weights b in
  let shared =
    List.filter_map
      (fun (name, va) ->
        match List.assoc_opt name wb with Some vb -> Some (va, vb) | None -> None)
      wa
  in
  Alcotest.(check bool) "some shared layers" true (List.length shared > 20);
  List.iter
    (fun (va, vb) ->
      if Tensor.same_shape va vb then
        Alcotest.(check bool) "identical weights" true (Tensor.approx_equal va vb))
    shared

let t_macs_vs_impl () =
  let model = Models.build (Models.resnet34 ()) (rng ()) in
  let base = Models.total_macs model in
  let grouped =
    Models.rebuild model (rng ())
      (Array.map
         (fun s -> if Conv_impl.valid s (Conv_impl.Grouped 4) then Conv_impl.Grouped 4 else Conv_impl.Full)
         model.Models.sites)
  in
  Alcotest.(check bool) "grouping reduces MACs" true
    (Models.total_macs grouped < (2 * base) / 3)

let t_cost_workloads_scale () =
  let model = Models.build (Models.resnet34 ()) (rng ()) in
  Alcotest.(check int) "channel mult" 8 model.Models.cost_mult_c;
  Alcotest.(check int) "spatial mult" 2 model.Models.cost_mult_s;
  let scaled = Models.scale_site model model.Models.sites.(0) in
  Alcotest.(check int) "scaled channels"
    (model.Models.sites.(0).Conv_impl.in_channels * 8)
    scaled.Conv_impl.in_channels

let t_optimizer_descends () =
  (* One SGD step moves weights against the gradient. *)
  let p = Layer.param "w" (Tensor.of_array [| 2 |] [| 1.0; -1.0 |]) in
  Tensor.set1 p.Layer.p_grad 0 0.5;
  Tensor.set1 p.p_grad 1 (-0.5);
  let opt = Optimizer.sgd ~momentum:0.0 ~weight_decay:0.0 ~lr:0.1 [ p ] in
  Optimizer.step opt;
  Alcotest.(check bool) "w0 decreased" true (Tensor.get1 p.p_value 0 < 1.0);
  Alcotest.(check bool) "w1 increased" true (Tensor.get1 p.p_value 1 > -1.0)

let t_decay_schedule () =
  let lr = Optimizer.decay_schedule ~milestones:[ 10; 20 ] ~gamma:0.1 ~base_lr:1.0 in
  Alcotest.(check (float 1e-9)) "before" 1.0 (lr 5);
  Alcotest.(check (float 1e-9)) "after first" 0.1 (lr 15);
  Alcotest.(check (float 1e-9)) "after both" 0.01 (lr 25)

let t_training_learns () =
  (* A small net must reach well-above-chance accuracy on the synthetic
     task — the substrate every accuracy experiment relies on. *)
  let r = rng () in
  let model = Models.build (Models.resnet18 ~scale:`Train ()) r in
  let data = Synthetic_data.cifar_like_small (Rng.split r) ~n:128 in
  let batch_rng = Rng.split r in
  let _ =
    Train.train model ~steps:60
      ~batch_fn:(fun step -> Synthetic_data.batch_fn batch_rng data ~batch_size:16 step)
      ~base_lr:0.05
  in
  let acc = Train.evaluate model (Synthetic_data.batches data ~batch_size:16) in
  Alcotest.(check bool)
    (Printf.sprintf "accuracy %.2f > 0.5" acc)
    true (acc > 0.5)

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"workload expansion matches macs accounting" ~count:50
      (pair (int_range 0 31) (int_range 0 5))
      (fun (site_ix, impl_ix) ->
        let model = Models.build (Models.resnet34 ()) (Rng.create 3) in
        let site = model.Models.sites.(site_ix mod Array.length model.Models.sites) in
        let impl =
          List.nth
            [ Conv_impl.Full; Conv_impl.Grouped 2; Conv_impl.Bottleneck 2;
              Conv_impl.Depthwise_separable; Conv_impl.Spatial_bottleneck 2;
              Conv_impl.Split_grouped (2, 4) ]
            impl_ix
        in
        (not (Conv_impl.valid site impl))
        || Conv_impl.macs site impl
           = List.fold_left
               (fun acc w -> acc + Conv_impl.workload_macs w)
               0
               (Conv_impl.workloads site impl));
    Test.make ~name:"param_count consistent with workload weights" ~count:50
      (int_range 0 31)
      (fun site_ix ->
        let model = Models.build (Models.resnet34 ()) (Rng.create 3) in
        let site = model.Models.sites.(site_ix mod Array.length model.Models.sites) in
        List.for_all
          (fun impl ->
            let from_workloads =
              List.fold_left
                (fun acc (w : Conv_impl.workload) ->
                  acc
                  + (w.Conv_impl.w_in_channels * w.w_out_channels * w.w_kernel
                     * w.w_kernel / w.w_groups))
                0
                (Conv_impl.workloads site impl)
            in
            Conv_impl.param_count site impl = from_workloads)
          (Conv_impl.all_options site)) ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "nn"
    [ ( "graph",
        [ quick "forward shapes" t_graph_forward_shapes;
          quick "topology validation" t_graph_rejects_bad_topology;
          quick "residual gradient" t_residual_add_gradient ] );
      ( "models",
        [ quick "site counts" t_site_counts;
          quick "resnext cardinality" t_resnext_baseline_grouped;
          quick "fisher nodes align" t_fisher_nodes_align;
          quick "rebuild" t_rebuild_changes_structure;
          quick "every impl builds" t_every_impl_builds_and_runs;
          quick "label-addressed weights" t_label_addressed_weights;
          quick "macs reduction" t_macs_vs_impl;
          quick "cost scaling" t_cost_workloads_scale ] );
      ( "training",
        [ quick "sgd step" t_optimizer_descends;
          quick "decay schedule" t_decay_schedule;
          slow "learns the synthetic task" t_training_learns ] );
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |]))
          qcheck_tests ) ]
