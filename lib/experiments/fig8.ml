type row = {
  network : string;
  orig_s : float;
  ours_s : float;
  orig_acc : float;
  ours_acc : float;
}

type data = { rows : row list }

let configs () =
  [ Models.resnet18 ~scale:`Imagenet ();
    Models.resnet34 ~scale:`Imagenet ();
    Models.densenet161 ~scale:`Imagenet ();
    Models.densenet169 ~scale:`Imagenet ();
    Models.densenet201 ~scale:`Imagenet () ]

let compute mode =
  let device = Device.i7 in
  let ctx = Eval_ctx.create () in
  let steps = (2 * Exp_common.train_steps mode) / 5 in
  let rows =
    List.mapi
      (fun i config ->
        let rng = Rng.create (Exp_common.master_seed + 80 + i) in
        let model = Models.build config rng in
        let probe =
          Exp_common.probe_batch (Rng.split rng) ~input_size:model.Models.input_size
        in
        let result =
          Unified_search.search
            ~candidates:(Exp_common.candidates mode / 4)
            ~ctx ~rng:(Rng.split rng) ~device ~probe model
        in
        let best = result.Unified_search.r_best in
        let data =
          Exp_common.train_data (Rng.split rng) ~input_size:model.Models.input_size
            ~classes:model.Models.num_classes
        in
        let train_and_eval m =
          let batch_rng = Rng.split rng in
          let _ =
            Train.train m ~steps
              ~batch_fn:(fun step ->
                Synthetic_data.batch_fn batch_rng data ~batch_size:8 step)
              ~base_lr:0.05
          in
          Train.evaluate m
            (List.filteri (fun i _ -> i < 4) (Synthetic_data.batches data ~batch_size:8))
        in
        let orig_acc = train_and_eval model in
        let ours_impls =
          Array.map (fun p -> p.Site_plan.sp_impl) best.Unified_search.cd_plans
        in
        let ours_model = Models.rebuild model (Rng.split rng) ours_impls in
        let ours_acc = train_and_eval ours_model in
        { network = model.Models.name;
          orig_s = result.Unified_search.r_baseline.Pipeline.ev_latency_s;
          ours_s = best.Unified_search.cd_latency_s;
          orig_acc;
          ours_acc })
      (configs ())
  in
  { rows }

let print ppf d =
  Exp_common.section ppf
    "Figure 8: ImageNet accuracy vs inference time (Original+TVM vs Ours, i7)";
  Format.fprintf ppf "%-14s | %12s %12s %8s | %8s %8s %8s@." "network" "orig time"
    "ours time" "speedup" "orig acc" "ours acc" "delta";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-14s | %a %a %7.2fx | %7.1f%% %7.1f%% %+6.1f%%@."
        r.network Exp_common.pp_us r.orig_s Exp_common.pp_us r.ours_s
        (r.orig_s /. r.ours_s) (100.0 *. r.orig_acc) (100.0 *. r.ours_acc)
        (100.0 *. (r.ours_acc -. r.orig_acc)))
    d.rows;
  let max_drop =
    List.fold_left (fun acc r -> Float.max acc (r.orig_acc -. r.ours_acc)) 0.0 d.rows
  in
  Format.fprintf ppf "@.largest accuracy drop: %.1f%% (paper: within 2%%)@."
    (100.0 *. max_drop)

let to_csv d =
  Csv_out.write ~name:"fig8_imagenet"
    ~header:[ "network"; "orig_s"; "ours_s"; "orig_acc"; "ours_acc" ]
    (List.map
       (fun r ->
         [ r.network; Csv_out.float_cell r.orig_s; Csv_out.float_cell r.ours_s;
           Csv_out.float_cell r.orig_acc; Csv_out.float_cell r.ours_acc ])
       d.rows)

let run mode ppf =
  let d = compute mode in
  print ppf d;
  ignore (to_csv d);
  d
