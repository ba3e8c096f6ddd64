(* Layers shared across the builds of one build seed.  A layer's weights
   are a pure function of the build seed, its label and its shape, so a
   layer built once can stand in for every later build that asks for the
   same (label, shape) under the same seed.  The cache keeps one seed's
   layers at a time: a build under another seed empties it first. *)
type layer_cache = {
  mutable lc_seed : int;
  lc_conv : (string, Layer.conv) Hashtbl.t;
  lc_bn : (string, Layer.bn) Hashtbl.t;
  lc_linear : (string, Layer.linear) Hashtbl.t;
}

let layer_cache () =
  { lc_seed = 0;
    lc_conv = Hashtbl.create 64;
    lc_bn = Hashtbl.create 64;
    lc_linear = Hashtbl.create 8 }

type t = {
  mutable nodes_rev : Graph.node list;
  mutable next_id : int;
  mutable fisher_rev : int list;
  base_seed : int;
  layers : layer_cache option;
}

let create ?layers rng =
  let base_seed = Int64.to_int (Rng.bits64 rng) in
  Option.iter
    (fun c ->
      if c.lc_seed <> base_seed then begin
        Hashtbl.reset c.lc_conv;
        Hashtbl.reset c.lc_bn;
        Hashtbl.reset c.lc_linear;
        c.lc_seed <- base_seed
      end)
    layers;
  { nodes_rev = []; next_id = 0; fisher_rev = []; base_seed; layers }

(* Label-addressed weight generator: identical labels (and build seed) give
   identical weights, so structural candidates share every common layer. *)
let layer_rng t label = Rng.create (t.base_seed lxor Hashtbl.hash label)

(* [make ()] through the layer cache's [table], when the builder has one. *)
let shared t table key make =
  match t.layers with
  | None -> make ()
  | Some c -> (
      let tbl = table c in
      match Hashtbl.find_opt tbl key with
      | Some layer -> layer
      | None ->
          let layer = make () in
          Hashtbl.add tbl key layer;
          layer)

let add t ?(label = "") op inputs =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.nodes_rev <- { Graph.id; op; inputs; label } :: t.nodes_rev;
  id

let input t =
  assert (t.next_id = 0);
  add t ~label:"input" Graph.Input []

let conv_bn_relu t ~label ~in_channels ~out_channels ~kernel ~stride ?pad
    ?(groups = 1) ?(dilation = 1) ?(relu = true) src =
  let pad = match pad with Some p -> p | None -> dilation * (kernel / 2) in
  let conv =
    shared t
      (fun c -> c.lc_conv)
      (Printf.sprintf "%s|%d|%d|%d|%d|%d|%d|%d" label in_channels out_channels kernel
         stride dilation pad groups)
      (fun () ->
        Layer.conv (layer_rng t label) ~name:label ~in_channels ~out_channels ~kernel
          ~stride ~dilation ~pad ~groups)
  in
  let c = add t ~label (Graph.Conv conv) [ src ] in
  let bn_name = label ^ ".bn" in
  let bn_layer =
    shared t
      (fun c -> c.lc_bn)
      (Printf.sprintf "%s|%d" bn_name out_channels)
      (fun () -> Layer.bn ~name:bn_name ~channels:out_channels)
  in
  let b = add t ~label:bn_name (Graph.Batch_norm bn_layer) [ c ] in
  if relu then add t ~label:(label ^ ".relu") Graph.Relu [ b ] else b

let linear_layer t ~label ~in_features ~out_features src =
  let fc =
    shared t
      (fun c -> c.lc_linear)
      (Printf.sprintf "%s|%d|%d" label in_features out_features)
      (fun () -> Layer.linear (layer_rng t label) ~name:label ~in_features ~out_features)
  in
  add t ~label (Graph.Linear fc) [ src ]

let mark_fisher t id = t.fisher_rev <- id :: t.fisher_rev

let realize_site t (site : Conv_impl.site) impl src =
  assert (Conv_impl.valid site impl);
  let { Conv_impl.in_channels; out_channels; kernel; stride; groups; site_label; _ } =
    site
  in
  let cbr = conv_bn_relu t in
  let out =
    match impl with
    | Conv_impl.Full ->
        cbr ~label:site_label ~in_channels ~out_channels ~kernel ~stride ~groups src
    | Conv_impl.Grouped g ->
        cbr ~label:site_label ~in_channels ~out_channels ~kernel ~stride ~groups:g src
    | Conv_impl.Bottleneck b ->
        let mid = out_channels / b in
        let narrow =
          cbr ~label:(site_label ^ ".narrow") ~in_channels ~out_channels:mid ~kernel
            ~stride ~groups src
        in
        cbr ~label:(site_label ^ ".expand") ~in_channels:mid ~out_channels ~kernel:1
          ~stride:1 narrow
    | Conv_impl.Depthwise_separable ->
        let dw =
          cbr ~label:(site_label ^ ".dw") ~in_channels ~out_channels:in_channels
            ~kernel ~stride ~groups:in_channels src
        in
        cbr ~label:(site_label ^ ".pw") ~in_channels ~out_channels ~kernel:1 ~stride:1
          dw
    | Conv_impl.Spatial_bottleneck b ->
        let small =
          cbr ~label:(site_label ^ ".spatial") ~in_channels ~out_channels ~kernel
            ~stride:(stride * b) ~groups src
        in
        add t ~label:(site_label ^ ".upsample") (Graph.Upsample b) [ small ]
    | Conv_impl.Split_grouped (g1, g2) ->
        let half = out_channels / 2 in
        let lo =
          cbr ~label:(site_label ^ ".lo") ~in_channels ~out_channels:half ~kernel
            ~stride ~groups:g1 src
        in
        let hi =
          cbr ~label:(site_label ^ ".hi") ~in_channels ~out_channels:half ~kernel
            ~stride ~groups:g2 src
        in
        add t ~label:(site_label ^ ".concat") Graph.Concat [ lo; hi ]
  in
  mark_fisher t out;
  out

let fisher_nodes t = List.rev t.fisher_rev

let finish t ~output =
  Graph.make (Array.of_list (List.rev t.nodes_rev)) ~output_id:output
