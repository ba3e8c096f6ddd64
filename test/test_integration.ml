(* Cross-module integration tests: the full pipelines the experiments are
   built from, exercised end to end at miniature sizes.

   1. schedule -> lowered program -> interpreter == reference kernels, for
      the literal sec-7.3 sequences;
   2. search -> rebuild winner -> train -> accuracy;
   3. cost model <-> roofline consistency across devices;
   4. Fisher rejection statistics behave like a filter;
   5. CSV export round-trips. *)

let rng () = Rng.create 2718

(* --- 1. Named sequences execute correctly ------------------------------ *)

let t_sequences_execute () =
  let co = 8 and ci = 8 and hw = 6 and k = 3 in
  let pad = 1 in
  let nest = Loop_nest.conv_nest_of_dims ~co ~ci ~oh:hw ~ow:hw ~k ~stride:1 ~groups:1 in
  let r = rng () in
  let input = Tensor.rand_normal r [| ci; hw; hw |] ~mean:0.0 ~std:1.0 in
  let padded = Loop_nest.pad_input input ~pad in
  (* Seq2 = grouped(2) with an unroll annotation: output must equal the
     grouped convolution exactly. *)
  (match Sequences.schedules (Sequences.Seq2 { g = 2; unroll = 16 }) nest with
  | [ s ] ->
      let weight = Tensor.rand_normal r [| co; ci / 2; k; k |] ~mean:0.0 ~std:1.0 in
      let prog = Loop_nest.lower nest s in
      let out = Tensor.zeros [| co; hw; hw |] in
      Loop_nest.run prog ~output:out ~weight ~input:padded;
      let reference =
        Ops.conv2d
          ~input:(Tensor.reshape input [| 1; ci; hw; hw |])
          ~weight ~bias:None
          { Ops.stride = 1; pad; groups = 2; dilation = 1 }
      in
      Alcotest.(check bool) "seq2 == grouped conv" true
        (Tensor.approx_equal ~tol:1e-4
           (Tensor.reshape out [| 1; co; hw; hw |])
           reference)
  | _ -> Alcotest.fail "seq2: one schedule");
  (* Seq3 = two half-output nests with different grouping factors. *)
  match Sequences.schedules (Sequences.Seq3 { g1 = 2; g2 = 4 }) nest with
  | [ lo; hi ] ->
      Alcotest.(check int) "lo half points" (8 / 2 * ci * hw * hw * k * k / 2)
        (Poly.points lo);
      Alcotest.(check int) "hi half points" (8 / 2 * ci * hw * hw * k * k / 4)
        (Poly.points hi)
  | _ -> Alcotest.fail "seq3: two schedules"

(* --- 2. Search winner trains ------------------------------------------- *)

let t_search_winner_trains () =
  let r = rng () in
  let model = Models.build (Models.resnet18 ~scale:`Train ()) r in
  let data = Synthetic_data.cifar_like_small (Rng.split r) ~n:128 in
  let probe = Synthetic_data.fixed_batch (Rng.split r) data ~batch_size:16 in
  let result =
    Unified_search.search ~candidates:25 ~ctx:(Eval_ctx.create ())
      ~rng:(Rng.split r) ~device:Device.i7 ~probe model
  in
  let impls =
    Array.map (fun p -> p.Site_plan.sp_impl) result.Unified_search.r_best.Unified_search.cd_plans
  in
  let winner = Models.rebuild model (Rng.split r) impls in
  let batch_rng = Rng.split r in
  let _ =
    Train.train winner ~steps:60
      ~batch_fn:(fun step -> Synthetic_data.batch_fn batch_rng data ~batch_size:16 step)
      ~base_lr:0.05
  in
  let acc = Train.evaluate winner (Synthetic_data.batches data ~batch_size:16) in
  Alcotest.(check bool)
    (Printf.sprintf "winner trains (acc %.2f)" acc)
    true (acc > 0.5)

(* --- 3. Roofline consistency ------------------------------------------- *)

let t_roofline_consistent () =
  let n = Loop_nest.conv_nest_of_dims ~co:64 ~ci:64 ~oh:32 ~ow:32 ~k:3 ~stride:1 ~groups:1 in
  List.iter
    (fun dev ->
      let s, _ = Autotune.tune dev n in
      let rf = Roofline.analyze dev n s in
      Alcotest.(check bool) "intensity positive" true (rf.Roofline.rf_intensity > 0.0);
      (* Achieved throughput can never beat the attainable roof by more than
         the model's bookkeeping slack. *)
      Alcotest.(check bool)
        (dev.Device.short_name ^ " under the roof")
        true
        (rf.rf_achieved_macs_per_s
        <= rf.rf_attainable_macs_per_s *. 1.05 +. 1e6))
    Device.all

let t_roofline_dw_is_memory_bound () =
  (* A depthwise convolution has tiny arithmetic intensity: on the mGPU it
     must classify as memory- or overhead-bound, never compute-bound. *)
  let n = Loop_nest.conv_nest_of_dims ~co:64 ~ci:64 ~oh:32 ~ow:32 ~k:3 ~stride:1 ~groups:64 in
  let s, _ = Autotune.tune Device.maxwell_mgpu n in
  let rf = Roofline.analyze Device.maxwell_mgpu n s in
  Alcotest.(check bool) "not compute bound" true
    (rf.Roofline.rf_bound <> Roofline.Compute_bound)

(* --- 4. Fisher filter statistics --------------------------------------- *)

let t_filter_statistics () =
  let r = rng () in
  let model = Models.build (Models.resnet18 ()) r in
  let probe = Exp_common.probe_batch (Rng.split r) ~input_size:16 in
  let result =
    Unified_search.search ~candidates:40 ~ctx:(Eval_ctx.create ())
      ~rng:(Rng.split r) ~device:Device.i7 ~probe model
  in
  (* With aggressive random candidates a meaningful share must be rejected
     (the paper reports ~90%; we assert a loose band). *)
  let frac =
    float_of_int result.Unified_search.r_rejected
    /. float_of_int result.r_explored
  in
  Alcotest.(check bool)
    (Printf.sprintf "rejection fraction %.2f in (0, 1)" frac)
    true
    (frac > 0.0 && frac < 1.0)

(* --- 5. CSV export ------------------------------------------------------ *)

let t_csv_roundtrip () =
  let dir = Filename.temp_file "npte" "csv" in
  Sys.remove dir;
  Csv_out.results_dir := dir;
  let path =
    Csv_out.write ~name:"test" ~header:[ "a"; "b" ]
      [ [ "1"; "with,comma" ]; [ "2"; "with \"quote\"" ] ]
  in
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Csv_out.results_dir := "results";
  match List.rev !lines with
  | [ header; row1; row2 ] ->
      Alcotest.(check string) "header" "a,b" header;
      Alcotest.(check string) "comma quoted" "1,\"with,comma\"" row1;
      Alcotest.(check string) "quote escaped" "2,\"with \"\"quote\"\"\"" row2
  | other -> Alcotest.failf "expected 3 lines, got %d" (List.length other)

(* --- 6. Annotations interact with the cost model ------------------------ *)

let t_prefetch_helps_memory_bound () =
  let n = Loop_nest.conv_nest_of_dims ~co:256 ~ci:256 ~oh:16 ~ow:16 ~k:3 ~stride:1 ~groups:1 in
  let base = Loop_nest.baseline_schedule n in
  let plain = Cost_model.estimate Device.arm_a57 n base in
  let pf = Cost_model.estimate Device.arm_a57 n (Poly.prefetch base ~pos:3) in
  Alcotest.(check bool) "prefetch reduces memory time" true
    (pf.Cost_model.memory_s < plain.Cost_model.memory_s)

let t_parallel_annotation_helps () =
  let n = Loop_nest.conv_nest_of_dims ~co:32 ~ci:32 ~oh:8 ~ow:8 ~k:3 ~stride:1 ~groups:1 in
  (* Put a reduction loop outermost so the implicit parallel prefix is
     empty; the explicit annotation restores multi-core speedup. *)
  let s = Poly.reorder (Loop_nest.baseline_schedule n) [| 1; 0; 2; 3; 4; 5 |] in
  let plain = Cost_model.estimate Device.i7 n s in
  let par = Cost_model.estimate Device.i7 n (Poly.parallelize s ~pos:1) in
  Alcotest.(check bool) "parallel speedup grows" true
    (par.Cost_model.parallel_speedup > plain.Cost_model.parallel_speedup)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  Alcotest.run "integration"
    [ ( "pipelines",
        [ quick "sequences execute" t_sequences_execute;
          slow "search winner trains" t_search_winner_trains;
          quick "fisher filter statistics" t_filter_statistics ] );
      ( "roofline",
        [ quick "consistency" t_roofline_consistent;
          quick "depthwise memory bound" t_roofline_dw_is_memory_bound ] );
      ( "infrastructure",
        [ quick "csv round-trip" t_csv_roundtrip;
          quick "prefetch model" t_prefetch_helps_memory_bound;
          quick "parallel annotation" t_parallel_annotation_helps ] ) ]
