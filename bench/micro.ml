(* Bechamel micro-benchmarks of the performance-critical kernels: the
   convolution forward, backward and backward-input (dense, grouped,
   depthwise and strided), ReLU and batch norm forward and backward, the
   set-up of a search (normal draws, the probe batch, a model build), one
   Fisher Potential pass, the analytic cost model, the autotuner sweep and
   the loop-nest interpreter. *)

open Bechamel
open Toolkit

let same_pad = { Ops.stride = 1; pad = 1; groups = 1; dilation = 1 }

(* A [k]x[k] convolution (k3 by default) on an [n; c; hw; hw] input and
   [co] output channels ([c] by default): its input, weight and an output
   gradient. *)
let conv_operands ?co ?(k = 3) ?(p = same_pad) ~seed ~n ~c ~hw () =
  let co = Option.value co ~default:c in
  let rng = Rng.create seed in
  let ho = Ops.conv_out_dim hw ~k ~stride:p.Ops.stride ~pad:p.pad in
  let input = Tensor.rand_normal rng [| n; c; hw; hw |] ~mean:0.0 ~std:1.0 in
  let weight = Tensor.rand_normal rng [| co; c / p.groups; k; k |] ~mean:0.0 ~std:0.1 in
  let gout = Tensor.rand_normal rng [| n; co; ho; ho |] ~mean:0.0 ~std:1.0 in
  (input, weight, gout)

let fwd_test ?co ?(p = same_pad) ~name ~seed ~n ~c ~hw () =
  let input, weight, _ = conv_operands ?co ~p ~seed ~n ~c ~hw () in
  Test.make ~name (Staged.stage (fun () -> ignore (Ops.conv2d ~input ~weight ~bias:None p)))

let bwd_input_test ?co ?k ?(p = same_pad) ~name ~seed ~n ~c ~hw () =
  let input, weight, gout = conv_operands ?co ?k ~p ~seed ~n ~c ~hw () in
  Test.make ~name
    (Staged.stage (fun () -> ignore (Ops.conv2d_backward_input ~input ~weight ~gout p)))

let conv_test = fwd_test ~name:"conv2d fwd 4x16x16x16 k3" ~seed:1 ~n:4 ~c:16 ~hw:16 ()

(* The late-stage shape: a 2x2 plane, where a loop along output rows is
   all overhead. *)
let conv_late_test = fwd_test ~name:"conv2d fwd 16x64x2x2 k3" ~seed:5 ~n:16 ~c:64 ~hw:2 ()

let conv_bwd_test =
  let input, weight, gout = conv_operands ~seed:2 ~n:4 ~c:16 ~hw:16 () in
  Test.make ~name:"conv2d bwd 4x16x16x16 k3"
    (Staged.stage (fun () -> ignore (Ops.conv2d_backward ~input ~weight ~gout same_pad)))

let conv_bwd_input_test =
  bwd_input_test ~name:"conv2d bwd-input 4x16x16x16 k3" ~seed:2 ~n:4 ~c:16 ~hw:16 ()

(* Grouped (im2col per group), depthwise (the padded stencil) and two
   stride-2 input gradients (the phased gather): a k3 one, whose four
   phases meet four, two, two and one taps, and the 1x1 of a downsampling
   shortcut, where three phases of four meet no tap. *)
let grouped = { same_pad with Ops.groups = 4 }
let depthwise = { same_pad with Ops.groups = 32 }

let conv_grouped_test =
  fwd_test ~p:grouped ~name:"conv2d fwd 16x64x4x4 g4 k3" ~seed:6 ~n:16 ~c:64 ~hw:4 ()

let conv_dw_test =
  fwd_test ~p:depthwise ~name:"conv2d fwd 16x32x8x8 g32 k3" ~seed:7 ~n:16 ~c:32 ~hw:8 ()

let conv_dw_bwd_input_test =
  bwd_input_test ~p:depthwise ~name:"conv2d bwd-input 16x32x8x8 g32 k3" ~seed:7 ~n:16 ~c:32
    ~hw:8 ()

(* mobilenet_small's last-stage depthwise conv: a 4x4 plane, so each
   output row is four outputs. *)
let depthwise_late = { same_pad with Ops.groups = 128 }

let conv_dw_late_test =
  fwd_test ~p:depthwise_late ~name:"conv2d fwd 16x128x4x4 g128 k3" ~seed:11 ~n:16 ~c:128 ~hw:4
    ()

let conv_dw_late_bwd_input_test =
  bwd_input_test ~p:depthwise_late ~name:"conv2d bwd-input 16x128x4x4 g128 k3" ~seed:11 ~n:16
    ~c:128 ~hw:4 ()

let conv_s2_bwd_input_test =
  bwd_input_test ~co:64
    ~p:{ same_pad with Ops.stride = 2 }
    ~name:"conv2d bwd-input 16x32x8x8 co64 s2 k3" ~seed:8 ~n:16 ~c:32 ~hw:8 ()

let conv_s2_k1_bwd_input_test =
  bwd_input_test ~co:128 ~k:1
    ~p:{ same_pad with Ops.stride = 2; pad = 0 }
    ~name:"conv2d bwd-input 16x64x8x8 co128 s2 k1" ~seed:10 ~n:16 ~c:64 ~hw:8 ()

(* ReLU and batch norm at mobilenet_small's largest Fisher-pass
   activation (batch 16, 32 channels, 16x16), on random signs, and the
   nearest upsampling of a spatial bottleneck (16x32x8x8 by 2), through a
   warm arena as in the Fisher pass. *)
let elementwise_tests =
  let rng = Rng.create 9 in
  let shape = [| 16; 32; 16; 16 |] in
  let x = Tensor.rand_normal rng shape ~mean:0.0 ~std:1.0 in
  let gout = Tensor.rand_normal rng shape ~mean:0.0 ~std:1.0 in
  let gamma = Tensor.rand_normal rng [| 32 |] ~mean:1.0 ~std:0.1 in
  let beta = Tensor.rand_normal rng [| 32 |] ~mean:0.0 ~std:0.1 in
  let _, cache = Ops.batch_norm ~input:x ~gamma ~beta ~eps:1e-5 () in
  let small = Tensor.rand_normal rng [| 16; 32; 8; 8 |] ~mean:0.0 ~std:1.0 in
  let arena = Arena.create () in
  let row name f =
    Test.make ~name (Staged.stage (fun () -> Arena.scoped arena (fun () -> ignore (f ()))))
  in
  [ row "relu fwd 16x32x16x16" (fun () -> Ops.relu ~arena x);
    row "relu bwd 16x32x16x16" (fun () -> Ops.relu_backward ~arena ~input:x ~gout ());
    row "batch_norm fwd 16x32x16x16" (fun () ->
        Ops.batch_norm ~arena ~input:x ~gamma ~beta ~eps:1e-5 ());
    row "batch_norm bwd 16x32x16x16" (fun () -> Ops.batch_norm_backward ~arena ~gout ~cache ());
    row "upsample fwd 16x32x8x8 f2" (fun () -> Ops.upsample_nearest ~arena small 2);
    row "upsample bwd 16x32x8x8 f2" (fun () ->
        Ops.upsample_nearest_backward ~arena ~input:small ~gout 2) ]

(* What every search and served ask does before its first candidate:
   draw normals, generate the probe batch and initialize the network. *)
let setup_tests =
  let rng = Rng.create 12 in
  let spec = Models.resnet18 () in
  [ Test.make ~name:"rng gauss x1000"
      (Staged.stage (fun () ->
           for _ = 1 to 1000 do
             ignore (Sys.opaque_identity (Rng.gauss rng))
           done));
    Test.make ~name:"probe batch 16x16"
      (Staged.stage (fun () -> ignore (Job.probe_batch (Rng.create 42) ~input_size:16)));
    Test.make ~name:"Models.build resnet18"
      (Staged.stage (fun () -> ignore (Models.build spec (Rng.create 42)))) ]

let fisher_test =
  let rng = Rng.create 3 in
  let model = Models.build (Models.resnet34 ()) rng in
  let probe = Exp_common.probe_batch rng ~input_size:16 in
  Test.make ~name:"fisher pass (resnet34, batch 16)"
    (Staged.stage (fun () -> ignore (Fisher.potential model probe)))

let cost_test =
  let nest = Loop_nest.conv_nest_of_dims ~co:128 ~ci:128 ~oh:16 ~ow:16 ~k:3 ~stride:1 ~groups:1 in
  let s = Autotune.default_schedule Device.i7 nest in
  Test.make ~name:"cost model estimate"
    (Staged.stage (fun () -> ignore (Cost_model.estimate Device.i7 nest s)))

let tune_test =
  let nest = Loop_nest.conv_nest_of_dims ~co:64 ~ci:64 ~oh:32 ~ow:32 ~k:3 ~stride:1 ~groups:1 in
  Test.make ~name:"autotune sweep (27 configs)"
    (Staged.stage (fun () -> ignore (Autotune.tune Device.i7 nest)))

let interp_test =
  let nest = Loop_nest.conv_nest_of_dims ~co:8 ~ci:8 ~oh:8 ~ow:8 ~k:3 ~stride:1 ~groups:1 in
  let s = Poly.tile (Loop_nest.baseline_schedule nest) ~pos:2 ~factor:4 in
  let prog = Loop_nest.lower nest s in
  let rng = Rng.create 4 in
  let weight = Tensor.rand_normal rng [| prog.Loop_nest.w_numel |] ~mean:0.0 ~std:0.1 in
  let input = Tensor.rand_normal rng [| prog.in_numel |] ~mean:0.0 ~std:1.0 in
  Test.make ~name:"loop-nest interpreter 8x8x8 k3"
    (Staged.stage (fun () ->
         let output = Tensor.zeros [| prog.Loop_nest.out_numel |] in
         Loop_nest.run prog ~output ~weight ~input))

let tests =
  Test.make_grouped ~name:"kernels"
    ([ conv_test; conv_late_test; conv_bwd_test; conv_bwd_input_test; conv_grouped_test;
       conv_dw_test; conv_dw_bwd_input_test; conv_dw_late_test; conv_dw_late_bwd_input_test;
       conv_s2_bwd_input_test; conv_s2_k1_bwd_input_test ]
    @ elementwise_tests @ setup_tests
    @ [ fisher_test; cost_test; tune_test; interp_test ])

let run ppf =
  Exp_common.section ppf "Micro-benchmarks (Bechamel)";
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:(Some 10) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Format.fprintf ppf "%-40s %12.1f ns/run@." name est
      | _ -> Format.fprintf ppf "%-40s (no estimate)@." name)
    results
