type layer = {
  index : int;
  label : string;
  shape : Conv_impl.workload;
  tvm_s : float;
  nas_s : float option;
  seq1_s : float option;
  seq2_s : float option;
  seq3_s : float option;
  sensitive : bool;
}

type data = { layers : layer list }

let workload_dims (w : Conv_impl.workload) =
  (w.Conv_impl.w_in_channels, w.w_out_channels, w.w_kernel, w.w_stride, w.w_groups,
   w.w_spatial)

(* Reconstructs a site record from a workload so the sequence plans can be
   applied to the distinct layer shapes. *)
let site_of_workload index (w : Conv_impl.workload) =
  { Conv_impl.site_index = index;
    in_channels = w.Conv_impl.w_in_channels;
    out_channels = w.w_out_channels;
    kernel = w.w_kernel;
    stride = w.w_stride;
    groups = w.w_groups;
    spatial_in = w.w_spatial;
    site_label = w.w_label }

let compute mode =
  ignore mode;
  let rng = Rng.create (Exp_common.master_seed + 6) in
  let model = Models.build (Models.resnet34 ~scale:`Imagenet ()) rng in
  let probe = Exp_common.probe_batch (Rng.split rng) ~input_size:model.Models.input_size in
  let device = Device.i7 in
  let ctx = Eval_ctx.create () in
  (* Distinct conv shapes of the network, at paper scale. *)
  let unique =
    List.fold_left
      (fun acc w -> if List.exists (fun u -> workload_dims u = workload_dims w) acc then acc else acc @ [ w ])
      [] (Models.cost_workloads model)
  in
  let unique = List.filteri (fun _ w -> w.Conv_impl.w_label <> "fc") unique in
  (* Per-layer Fisher sensitivity: group (g=2) every site of this shape and
     test clipped legality against the original network (the same standard
     and shared-seed rebuild as the searches).  Shapes whose compression
     collapses the Fisher Potential receive no neural transformation. *)
  let seed = Rng.int rng 1_000_000_000 in
  let full = Array.map (fun _ -> Conv_impl.Full) model.Models.sites in
  let baseline_scores =
    Fisher.score (Models.rebuild model (Rng.create seed) full) probe
  in
  let shape_of_site s =
    let scaled = Models.scale_site model s in
    ( scaled.Conv_impl.in_channels, scaled.out_channels, scaled.kernel, scaled.stride,
      scaled.groups, scaled.spatial_in )
  in
  let sensitive_for w =
    let dims = workload_dims w in
    let impls =
      Array.map
        (fun site ->
          if shape_of_site site = dims && Conv_impl.valid site (Conv_impl.Grouped 2)
          then Conv_impl.Grouped 2
          else Conv_impl.Full)
        model.Models.sites
    in
    if Array.for_all (fun i -> i = Conv_impl.Full) impls then
      (* No transformable site has this shape (stem / downsample 1x1s):
         treated as sensitive, exactly the paper's untouched layers. *)
      true
    else begin
      let candidate = Models.rebuild model (Rng.create seed) impls in
      let scores = Fisher.score candidate probe in
      not (Fisher.legal_clipped ~slack:0.06 ~baseline:baseline_scores scores)
    end
  in
  let layers =
    List.mapi
      (fun index w ->
        let site = site_of_workload index w in
        let tvm_s = Pipeline.workload_cost ~ctx device w in
        let sensitive = sensitive_for w in
        let cost seq =
          if sensitive || not (Sequences.valid site seq) then None
          else Some (Pipeline.site_cost ~ctx device site (Sequences.plan seq))
        in
        { index;
          label = w.Conv_impl.w_label;
          shape = w;
          tvm_s;
          nas_s = cost (Sequences.Plain_group 2);
          seq1_s = cost (Sequences.Seq1 { g = 2; split = 2 });
          seq2_s = cost (Sequences.Seq2 { g = 2; unroll = 16 });
          seq3_s = cost (Sequences.Seq3 { g1 = 2; g2 = 4 });
          sensitive })
      unique
  in
  { layers }

let print ppf d =
  Exp_common.section ppf
    "Figure 6: layer-wise sequences for ResNet-34 on the Intel i7";
  Format.fprintf ppf "%d distinct convolution layers@." (List.length d.layers);
  Format.fprintf ppf "%-4s %-14s %-22s | %9s | %7s %7s %7s %7s@." "L" "site"
    "shape (ci->co kxk s g sp)" "TVM" "NASx" "seq1x" "seq2x" "seq3x";
  List.iter
    (fun l ->
      let w = l.shape in
      let shape =
        Printf.sprintf "%d->%d %dx%d s%d g%d %d" w.Conv_impl.w_in_channels
          w.w_out_channels w.w_kernel w.w_kernel w.w_stride w.w_groups w.w_spatial
      in
      let speed = function
        | None -> "   -  "
        | Some s -> Printf.sprintf "%5.2fx" (l.tvm_s /. s)
      in
      Format.fprintf ppf "L%-3d %-14s %-22s | %a | %7s %7s %7s %7s%s@."
        (l.index + 1) l.label shape Exp_common.pp_us l.tvm_s (speed l.nas_s)
        (speed l.seq1_s) (speed l.seq2_s) (speed l.seq3_s)
        (if l.sensitive then "  [fisher-sensitive]" else ""))
    d.layers;
  let sensitive = List.length (List.filter (fun l -> l.sensitive) d.layers) in
  Format.fprintf ppf
    "@.%d of %d layers are Fisher-sensitive and keep their original convolution (paper: 4 of 11)@."
    sensitive (List.length d.layers)

let to_csv d =
  let cell = function None -> "" | Some s -> Csv_out.float_cell s in
  Csv_out.write ~name:"fig6_layerwise"
    ~header:
      [ "layer"; "label"; "in_c"; "out_c"; "kernel"; "stride"; "spatial"; "tvm_s";
        "nas_s"; "seq1_s"; "seq2_s"; "seq3_s"; "fisher_sensitive" ]
    (List.map
       (fun l ->
         let w = l.shape in
         [ Csv_out.int_cell (l.index + 1); l.label;
           Csv_out.int_cell w.Conv_impl.w_in_channels;
           Csv_out.int_cell w.w_out_channels; Csv_out.int_cell w.w_kernel;
           Csv_out.int_cell w.w_stride; Csv_out.int_cell w.w_spatial;
           Csv_out.float_cell l.tvm_s; cell l.nas_s; cell l.seq1_s; cell l.seq2_s;
           cell l.seq3_s; string_of_bool l.sensitive ])
       d.layers)

let run mode ppf =
  let d = compute mode in
  print ppf d;
  ignore (to_csv d);
  d
