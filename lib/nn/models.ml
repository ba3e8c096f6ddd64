type config = Block.spec

let config_name (c : config) = c.Block.sp_name

type t = {
  config : config;
  name : string;
  graph : Graph.t;
  sites : Conv_impl.site array;
  impls : Conv_impl.t array;
  fisher_node_ids : int array;
  fixed_workloads : Conv_impl.workload list;
  num_classes : int;
  input_size : int;
  input_channels : int;
  cost_mult_c : int;
  cost_mult_s : int;
}

let cost_mults = Block.cost_mults

(* --- Assembly --------------------------------------------------------- *)

let build ?impls ?layers config rng =
  let b = Builder.create ?layers rng in
  let ctx = Block.fresh_ctx ?impls b in
  let output = Block.emit ctx config in
  let graph = Builder.finish b ~output in
  let sites = Block.ctx_sites ctx in
  (match impls with
  | None -> ()
  | Some arr ->
      if Array.length arr <> Array.length sites then
        invalid_arg
          (Printf.sprintf "build %s: expected %d impls, got %d" (config_name config)
             (Array.length sites) (Array.length arr)));
  let cost_mult_c, cost_mult_s = cost_mults config in
  { config;
    name = config_name config;
    graph;
    sites;
    impls = Block.ctx_impls ctx;
    fisher_node_ids = Array.of_list (Builder.fisher_nodes b);
    fixed_workloads = Block.ctx_fixed ctx;
    num_classes = config.Block.sp_num_classes;
    input_size = config.Block.sp_input_size;
    input_channels = 3;
    cost_mult_c;
    cost_mult_s }

let rebuild ?layers t rng impls = build ~impls ?layers t.config rng

let site_count config =
  let probe = build config (Rng.create 1) in
  Array.length probe.sites

let forward_logits t input =
  let run = Graph.forward t.graph input in
  Graph.output run

let all_workloads t =
  let site_workloads =
    Array.to_list t.sites
    |> List.concat_map (fun s -> Conv_impl.workloads s t.impls.(s.Conv_impl.site_index))
  in
  t.fixed_workloads @ site_workloads

let total_macs t =
  List.fold_left (fun acc w -> acc + Conv_impl.workload_macs w) 0 (all_workloads t)

let scale_site t (s : Conv_impl.site) =
  { s with
    Conv_impl.in_channels = s.Conv_impl.in_channels * t.cost_mult_c;
    out_channels = s.out_channels * t.cost_mult_c;
    spatial_in = s.spatial_in * t.cost_mult_s }

let scale_fixed_workload t (w : Conv_impl.workload) =
  let mc = t.cost_mult_c and ms = t.cost_mult_s in
  { w with
    Conv_impl.w_in_channels =
      (if w.Conv_impl.w_label = "stem" then w.w_in_channels else w.w_in_channels * mc);
    w_out_channels = (if w.w_label = "fc" then w.w_out_channels else w.w_out_channels * mc);
    w_spatial = (if w.w_label = "fc" then 1 else w.w_spatial * ms) }

let cost_workloads t =
  let fixed = List.map (scale_fixed_workload t) t.fixed_workloads in
  let site_workloads =
    Array.to_list t.sites
    |> List.concat_map (fun s ->
           Conv_impl.workloads (scale_site t s) t.impls.(s.Conv_impl.site_index))
  in
  fixed @ site_workloads

let conv_params t =
  List.fold_left
    (fun acc w ->
      acc
      + (w.Conv_impl.w_in_channels * w.w_out_channels * w.w_kernel * w.w_kernel
        / w.w_groups))
    0 (all_workloads t)

(* --- Structural digest ------------------------------------------------- *)

(* Canonical fingerprint of a built model: one line per node (id, operator
   with its static parameters and weight shape, inputs, label) followed by
   one line per parameter (name, value sum, squared norm).  Dilation is only
   printed when it differs from 1 so that digests of pre-dilation builds are
   preserved verbatim. *)
let graph_digest (m : t) =
  let b = Buffer.create 4096 in
  let g = m.graph in
  let shape_str t =
    String.concat "x" (Array.to_list (Array.map string_of_int (Tensor.shape t)))
  in
  for i = 0 to Graph.node_count g - 1 do
    let n = Graph.node g i in
    let op_desc =
      match n.Graph.op with
      | Graph.Input -> "input"
      | Graph.Conv c ->
          Printf.sprintf "conv[s%d,p%d,g%d%s,w%s]" c.Layer.cv_stride c.cv_pad
            c.cv_groups
            (if c.cv_dilation = 1 then ""
             else Printf.sprintf ",d%d" c.cv_dilation)
            (shape_str c.cv_w.Layer.p_value)
      | Graph.Batch_norm bn ->
          Printf.sprintf "bn[%d]" (Tensor.numel bn.Layer.bn_gamma.Layer.p_value)
      | Graph.Relu -> "relu"
      | Graph.Max_pool { size; stride; pad } ->
          Printf.sprintf "maxpool[%d,%d,%d]" size stride pad
      | Graph.Avg_pool { size; stride; pad } ->
          Printf.sprintf "avgpool[%d,%d,%d]" size stride pad
      | Graph.Global_avg_pool -> "gap"
      | Graph.Linear l ->
          Printf.sprintf "linear[w%s]" (shape_str l.Layer.ln_w.Layer.p_value)
      | Graph.Add -> "add"
      | Graph.Concat -> "concat"
      | Graph.Identity -> "identity"
      | Graph.Zero -> "zero"
      | Graph.Upsample f -> Printf.sprintf "upsample[%d]" f
      | Graph.Sigmoid -> "sigmoid"
      | Graph.Scale_channels -> "scalech"
    in
    Buffer.add_string b
      (Printf.sprintf "%d|%s|%s|%s\n" n.Graph.id op_desc
         (String.concat "," (List.map string_of_int n.Graph.inputs))
         n.Graph.label)
  done;
  List.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "%s|%.12e|%.12e\n" p.Layer.p_name
           (Tensor.sum p.Layer.p_value)
           (Tensor.sq_norm p.Layer.p_value)))
    (Graph.params g);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- Presets ----------------------------------------------------------- *)

type scale = Block.scale

let of_zoo name scale =
  match Zoo.spec ~scale name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "unknown zoo entry %s" name)

let resnet18 ?(scale = `Search) () = of_zoo "resnet18" scale
let resnet34 ?(scale = `Search) () = of_zoo "resnet34" scale
let resnext29 ?(scale = `Search) () = of_zoo "resnext29" scale
let densenet161 ?(scale = `Search) () = of_zoo "densenet161" scale
let densenet169 ?(scale = `Search) () = of_zoo "densenet169" scale
let densenet201 ?(scale = `Search) () = of_zoo "densenet201" scale
