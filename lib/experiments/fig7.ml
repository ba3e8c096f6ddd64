type row = {
  network : string;
  tvm_s : float;
  nas_s : float;
  fbnet_s : float;
  ours_s : float;
  fbnet_gpu_days : float;
  fbnet_trainings : int;
}

type data = { rows : row list }

let compute mode (fig4 : Fig4.data) =
  let device = Device.i7 in
  let ctx = Eval_ctx.create () in
  let rows =
    List.filter_map
      (fun (r : Fig4.row) ->
        if r.Fig4.device.Device.short_name <> "CPU" then None
        else begin
          let rng = Rng.create (Exp_common.master_seed + 70 + String.length r.network) in
          (* Rebuild the (train-scale) model for FBNet's proxy trainings. *)
          let config =
            List.find
              (fun c -> Models.config_name c = r.Fig4.network)
              (Exp_common.cifar_configs ())
          in
          let model = Models.build config rng in
          let data =
            Exp_common.train_data (Rng.split rng) ~input_size:model.Models.input_size
              ~classes:10
          in
          let fb =
            Fbnet.search ~rounds:(Exp_common.fbnet_rounds mode)
              ~population:(Exp_common.fbnet_population mode)
              ~train_steps:(match mode with Exp_common.Quick -> 20 | Exp_common.Full -> 60)
              ~ctx ~rng:(Rng.split rng) ~device ~data model
          in
          Some
            { network = r.Fig4.network;
              tvm_s = r.Fig4.tvm_s;
              nas_s = r.Fig4.nas_s;
              fbnet_s = fb.Fbnet.fb_latency_s;
              ours_s = r.Fig4.ours_s;
              fbnet_gpu_days = fb.Fbnet.fb_simulated_gpu_days;
              fbnet_trainings = fb.Fbnet.fb_trainings }
        end)
      fig4.Fig4.rows
  in
  { rows }

let print ppf d =
  Exp_common.section ppf "Figure 7: FBNet comparison on the Intel i7 (CIFAR-10)";
  Format.fprintf ppf "%-14s | %8s %8s %8s %8s | %s@." "network" "TVM" "NASx"
    "FBNetx" "Oursx" "FBNet cost";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-14s | %a %7.2fx %7.2fx %7.2fx | ~%.1f GPU-days (%d trainings)@."
        r.network Exp_common.pp_us r.tvm_s (r.tvm_s /. r.nas_s) (r.tvm_s /. r.fbnet_s)
        (r.tvm_s /. r.ours_s) r.fbnet_gpu_days r.fbnet_trainings)
    d.rows;
  Format.fprintf ppf
    "@.Ours requires no training during search; FBNet pays a training step per evaluation.@."

let to_csv d =
  Csv_out.write ~name:"fig7_fbnet"
    ~header:[ "network"; "tvm_s"; "nas_s"; "fbnet_s"; "ours_s"; "fbnet_gpu_days" ]
    (List.map
       (fun r ->
         [ r.network; Csv_out.float_cell r.tvm_s; Csv_out.float_cell r.nas_s;
           Csv_out.float_cell r.fbnet_s; Csv_out.float_cell r.ours_s;
           Csv_out.float_cell r.fbnet_gpu_days ])
       d.rows)

let run mode fig4 ppf =
  let d = compute mode fig4 in
  print ppf d;
  ignore (to_csv d);
  d
