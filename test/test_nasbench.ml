(* NAS-Bench-201-like cell-space tests: encoding, instantiation, forward
   correctness of special ops, and the Fisher/error evaluation path. *)

let t_space_size () = Alcotest.(check int) "5^6" 15625 Nasbench.space_size

let t_index_roundtrip () =
  List.iter
    (fun i ->
      Alcotest.(check int) (string_of_int i) i (Nasbench.to_index (Nasbench.of_index i)))
    [ 0; 1; 7; 123; 5555; 15624 ]

let t_index_distinct () =
  let a = Nasbench.of_index 0 and b = Nasbench.of_index 15624 in
  Alcotest.(check bool) "all none vs all avgpool" true (a <> b);
  Array.iter (fun op -> Alcotest.(check string) "none" "none" (Nasbench.op_name op)) a

let t_instantiate_runs () =
  let rng = Rng.create 1 in
  let cell = Nasbench.of_index 12345 in
  let net = Nasbench.instantiate rng cell in
  let input = Tensor.rand_normal rng [| 2; 3; 8; 8 |] ~mean:0.0 ~std:1.0 in
  let run = Graph.forward net.Nasbench.nb_graph input in
  Alcotest.(check (array int)) "logits" [| 2; 10 |] (Tensor.shape (Graph.output run))

let t_all_skip_cell_is_identity_like () =
  (* A cell of all skips has no conv edges inside the cells; only stem,
     reductions and the classifier carry parameters. *)
  let rng = Rng.create 2 in
  let all_skip = Array.make 6 Nasbench.Skip in
  let net = Nasbench.instantiate rng all_skip in
  Alcotest.(check int) "no cell fisher nodes (only reductions)" 2
    (Array.length net.Nasbench.nb_fisher_nodes)

let t_conv_cells_have_more_params () =
  let rng = Rng.create 3 in
  let all_skip = Nasbench.instantiate rng (Array.make 6 Nasbench.Skip) in
  let all_conv = Nasbench.instantiate rng (Array.make 6 Nasbench.Conv3x3) in
  Alcotest.(check bool) "conv3x3 cell bigger" true
    (Graph.param_count all_conv.Nasbench.nb_graph
    > Graph.param_count all_skip.Nasbench.nb_graph)

let t_zero_op_blocks_signal () =
  (* With every edge None, the cells contribute nothing: two different
     inputs produce logits that differ only through stem+reductions...
     actually the final node output is Zero, so cells pass zeros and the
     network still runs. *)
  let rng = Rng.create 4 in
  let net = Nasbench.instantiate rng (Array.make 6 Nasbench.None_op) in
  let input = Tensor.rand_normal rng [| 1; 3; 8; 8 |] ~mean:0.0 ~std:1.0 in
  let run = Graph.forward net.Nasbench.nb_graph input in
  Alcotest.(check bool) "finite output" true
    (Array.for_all Float.is_finite (Tensor.data (Graph.output run)))

let t_evaluate_cell_record () =
  let rng = Rng.create 5 in
  let data = Synthetic_data.cifar_like_small (Rng.split rng) ~n:96 in
  let probe = Synthetic_data.fixed_batch (Rng.split rng) data ~batch_size:8 in
  let r = Nasbench.evaluate_cell ~train_steps:5 ~rng ~data ~probe 777 in
  Alcotest.(check int) "index" 777 r.Nasbench.r_index;
  Alcotest.(check bool) "error in range" true (r.r_error >= 0.0 && r.r_error <= 1.0);
  Alcotest.(check bool) "fisher non-negative" true (r.r_fisher >= 0.0);
  Alcotest.(check bool) "params positive" true (r.r_params > 0)

let t_sample_space_distinct () =
  let rng = Rng.create 6 in
  let data = Synthetic_data.cifar_like_small (Rng.split rng) ~n:96 in
  let probe = Synthetic_data.fixed_batch (Rng.split rng) data ~batch_size:8 in
  let records = Nasbench.sample_space ~train_steps:2 ~rng ~data ~probe ~n:5 () in
  let indices = List.map (fun r -> r.Nasbench.r_index) records in
  Alcotest.(check int) "5 distinct cells" 5 (List.length (List.sort_uniq compare indices))

let t_conv_rich_cells_score_higher_fisher () =
  (* The figure-3 mechanism at its extremes: a cell with convolutions on
     every edge has strictly more Fisher Potential than a cell with none. *)
  let rng = Rng.create 7 in
  let data = Synthetic_data.cifar_like_small (Rng.split rng) ~n:96 in
  let probe = Synthetic_data.fixed_batch (Rng.split rng) data ~batch_size:8 in
  let fisher cell =
    let net = Nasbench.instantiate (Rng.create 9) cell in
    (Fisher.score_graph net.Nasbench.nb_graph ~fisher_nodes:net.Nasbench.nb_fisher_nodes probe)
      .Fisher.total
  in
  Alcotest.(check bool) "conv cell > none cell" true
    (fisher (Array.make 6 Nasbench.Conv3x3) > fisher (Array.make 6 Nasbench.None_op))

let qcheck_tests =
  let open QCheck in
  [ Test.make ~name:"index roundtrip over the space" ~count:100
      (int_range 0 (Nasbench.space_size - 1))
      (fun i -> Nasbench.to_index (Nasbench.of_index i) = i);
    Test.make ~name:"every cell instantiates and runs forward" ~count:10
      (int_range 0 (Nasbench.space_size - 1))
      (fun i ->
        let rng = Rng.create i in
        let net = Nasbench.instantiate rng (Nasbench.of_index i) in
        let input = Tensor.rand_normal rng [| 1; 3; 8; 8 |] ~mean:0.0 ~std:1.0 in
        let run = Graph.forward net.Nasbench.nb_graph input in
        Tensor.shape (Graph.output run) = [| 1; 10 |]) ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "nasbench"
    [ ( "encoding",
        [ quick "space size" t_space_size;
          quick "roundtrip" t_index_roundtrip;
          quick "distinct" t_index_distinct ] );
      ( "instantiation",
        [ quick "runs forward" t_instantiate_runs;
          quick "all-skip structure" t_all_skip_cell_is_identity_like;
          quick "conv cells bigger" t_conv_cells_have_more_params;
          quick "zero op" t_zero_op_blocks_signal ] );
      ( "evaluation",
        [ quick "record fields" t_evaluate_cell_record;
          quick "distinct samples" t_sample_space_distinct;
          quick "fisher tracks capacity" t_conv_rich_cells_score_higher_fisher ] );
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 2026 |]))
          qcheck_tests ) ]
