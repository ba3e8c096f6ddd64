type candidate = {
  cd_plans : Site_plan.t array;
  cd_fisher : float;
  cd_latency_s : float;
  cd_macs : int;
  cd_params : int;
}

type result = {
  r_best : candidate;
  r_baseline : Pipeline.evaluated;
  r_baseline_fisher : float;
  r_explored : int;
  r_rejected : int;
  r_quarantined : (string * Nas_error.t) list;
  r_evaluated : int;
  r_complete : bool;
  r_checkpoint_error : Nas_error.t option;
  r_wall_s : float;
}

let random_plans rng model ~mutate_prob =
  Array.map
    (fun site ->
      if Rng.uniform rng < mutate_prob then begin
        match Sequences.standard_menu site with
        | [] -> Site_plan.baseline
        | menu -> Sequences.plan (Rng.choice_list rng menu)
      end
      else Site_plan.baseline)
    model.Models.sites

let plans_signature plans =
  String.concat ";" (Array.to_list (Array.map (fun p -> p.Site_plan.sp_name) plans))

(* Quarantine output is sorted by plan signature so failure attribution is
   deterministic and diffable across runs and worker counts. *)
let sort_quarantine q = List.sort (fun (a, _) (b, _) -> compare a b) q

(* The Fisher oracle.  One shared rebuild seed per search: candidates share
   the weights of every layer they have in common with the reference
   network (label-addressed initialization), so Fisher differences measure
   structure, not seed noise.  Loop steps never change what a network
   computes, so a score is a pure function of the network, the probe
   batch, the rebuild seed and the impl vector, and the memo key in the
   evaluation context names exactly those.  The two digests are taken once
   per oracle, not once per lookup; the spec digest (not [model.name])
   tells apart a family built at another scale. *)
type fisher_oracle = {
  fo_model : Models.t;
  fo_probe : Train.batch;
  fo_seed : int;
  fo_prefix : string;
  fo_reference : Fisher.scores;
}

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))

let scores_of ~ctx ~prefix ~seed model probe impls =
  let key =
    prefix ^ String.concat ";" (Array.to_list (Array.map Conv_impl.to_string impls))
  in
  Bounded_cache.remember (Eval_ctx.fisher_cache ctx) key (fun () ->
      let candidate =
        Models.rebuild ~layers:(Eval_ctx.layer_cache ctx) model (Rng.create seed) impls
      in
      Fisher.score ~arena:(Eval_ctx.arena ctx) candidate probe)

(* The reference network is the all-[Full] vector: the same key and the
   same computation as the all-baseline candidate, so it is one more memo
   lookup, booked under Fisher in the trace. *)
let fisher_oracle ~ctx rng model probe =
  let fo_seed = Rng.int rng 1_000_000_000 in
  let images = probe.Train.images in
  let fo_prefix =
    Printf.sprintf "%s|%s|%d|" (digest model.Models.config)
      (digest (Tensor.shape images, Tensor.data images, probe.labels))
      fo_seed
  in
  let fo_reference =
    Obs.with_span (Eval_ctx.obs ctx) "fisher" (fun () ->
        scores_of ~ctx ~prefix:fo_prefix ~seed:fo_seed model probe
          (Array.map (fun _ -> Conv_impl.Full) model.Models.sites))
  in
  { fo_model = model; fo_probe = probe; fo_seed; fo_prefix; fo_reference }

let fisher_scores ~ctx o impls =
  scores_of ~ctx ~prefix:o.fo_prefix ~seed:o.fo_seed o.fo_model o.fo_probe impls

let impls_of plans = Array.map (fun p -> p.Site_plan.sp_impl) plans

(* Aggressiveness varies per candidate, so the pool spans mild touch-ups to
   whole-network rewrites. *)
let draw_mutate_prob rng base = Float.min 1.0 (base +. Rng.float rng 0.8)

(* Directed seed candidates: each named sequence applied uniformly across
   the network (with per-site fallback to baseline when invalid).  These
   cover the corners a modest random pool can miss and subsume the
   single-block NAS configurations. *)
let uniform_candidates model =
  let menu_union =
    Array.fold_left
      (fun acc site ->
        List.fold_left
          (fun acc seq ->
            let name = Sequences.name seq in
            if List.mem_assoc name acc then acc else (name, seq) :: acc)
          acc (Sequences.standard_menu site))
      [] model.Models.sites
  in
  List.map
    (fun (_, seq) ->
      Array.map
        (fun site ->
          if Sequences.valid site seq then Sequences.plan seq else Site_plan.baseline)
        model.Models.sites)
    menu_union

let fallback_candidate model baseline baseline_fisher =
  { cd_plans = Array.map (fun _ -> Site_plan.baseline) model.Models.sites;
    cd_fisher = baseline_fisher;
    cd_latency_s = baseline.Pipeline.ev_latency_s;
    cd_macs = baseline.Pipeline.ev_macs;
    cd_params = baseline.Pipeline.ev_params }

let generate_pool rng model ~candidates ~mutate_prob =
  let seeds = uniform_candidates model in
  let n_random = max 0 (candidates - List.length seeds) in
  Array.of_list
    (seeds
    @ List.init n_random (fun _ ->
          random_plans rng model ~mutate_prob:(draw_mutate_prob rng mutate_prob)))

(* The typed pool keeps the directed seeds (they cover the uniform corners
   both strategies need) and fills the rest with well-typed-by-construction
   candidates instead of rejection-sampled coin flips. *)
let typed_pool rng model ~candidates =
  let seeds = uniform_candidates model in
  let n_typed = max 0 (candidates - List.length seeds) in
  Array.of_list (seeds @ List.init n_typed (fun _ -> Strategy.typed_plans rng model))

(* How far the static analyzer got with a candidate: the merge books the
   [analysis.*] counters from it. *)
type vetted = Unchecked | Checked | Static_rejected

(* Evaluate one candidate under guards and [ctx]'s (optional) injected
   faults.  [Some cand] = survivor, [None] = Fisher-rejected (a healthy
   outcome); every failure mode raises a structured {!Nas_error.Fail} for
   the caller to quarantine.  [vetted] records the static check's verdict
   before anything can raise. *)
let eval_candidate ~ctx ~vetted ~index ~slack ~oracle ~device ~prepared model plans =
  let obs = Eval_ctx.obs ctx in
  let fault = Eval_ctx.fault ctx in
  if Fault.trip fault ~key:index Fault.Plan_gen then
    Nas_error.fail (Nas_error.Injected_fault "plan generation");
  Obs.with_span obs "legality" (fun () ->
      match Static_check.candidate model plans with
      | Some (i, _diags) ->
          vetted := Static_rejected;
          Nas_error.invalid_plan "candidate %d: plan %s invalid for %s" index
            plans.(i).Site_plan.sp_name model.Models.sites.(i).Conv_impl.site_label
      | None -> vetted := Checked);
  let legal_total =
    Obs.with_span obs "fisher" (fun () ->
        let scores = fisher_scores ~ctx oracle (impls_of plans) in
        let total =
          Fault.corrupt_float fault ~key:index Fault.Fisher_oracle scores.Fisher.total
        in
        let total = Guard.check_float ~source:Nas_error.Fisher_score total in
        ignore (Guard.check_array ~source:Nas_error.Fisher_score scores.Fisher.per_site);
        if Fisher.legal_clipped ~slack ~baseline:oracle.fo_reference scores then
          Some total
        else None)
  in
  match legal_total with
  | None -> None
  | Some total ->
      Obs.with_span obs "cost" (fun () ->
          let ev = Pipeline.evaluate_prepared ~ctx device prepared ~plans in
          let latency =
            Fault.corrupt_float fault ~key:index Fault.Cost_oracle
              ev.Pipeline.ev_latency_s
          in
          let latency = Guard.check_float ~source:Nas_error.Cost_model latency in
          Some
            { cd_plans = plans;
              cd_fisher = total;
              cd_latency_s = latency;
              cd_macs = ev.ev_macs;
              cd_params = ev.ev_params })

(* The ways one candidate evaluation can end.  The first three are pure
   per-index values, so replaying them in index order merges to the same
   incumbent / rejection count / quarantine set no matter how many worker
   domains produced them.  [O_skipped] only appears when a [?stop] hook
   fired — a stopped run returns its best-so-far and makes no determinism
   claim beyond that. *)
type outcome =
  | O_survivor of candidate
  | O_rejected
  | O_failed of string * Nas_error.t * vetted
  | O_skipped

(* The quarantine note is recorded on [ctx]'s recorder — the worker's
   fork in a parallel run — right here, between the candidate's spans, so
   the merged trace is identical for every worker count.  The counters are
   booked by the merge, from the outcomes it keeps. *)
let eval_outcome ~ctx ~slack ~oracle ~device ~prepared model index plans =
  let vetted = ref Unchecked in
  match
    Nas_error.guard (fun () ->
        eval_candidate ~ctx ~vetted ~index ~slack ~oracle ~device ~prepared model plans)
  with
  | Ok (Some cand) -> O_survivor cand
  | Ok None -> O_rejected
  | Error e ->
      Obs.note (Eval_ctx.obs ctx) ~detail:(Nas_error.class_name e) "quarantine";
      O_failed (plans_signature plans, e, !vetted)

(* --- checkpoint/resume -------------------------------------------------- *)

(* The pool is regenerated deterministically from the caller's RNG on
   resume, so the checkpoint only carries progress: the next pool index,
   the counters, the incumbent and the quarantine list.  [ck_key] rejects
   checkpoints from a different configuration: it names the oracle
   (network spec, probe batch and rebuild seed) and digests the pool's
   plan signatures, so a snapshot taken under another seed starts fresh. *)
type ckpt_state = {
  ck_key : string;
  ck_done : int;
  ck_rejected : int;
  ck_best : candidate option;
  ck_quarantine : (string * Nas_error.t) list;  (* newest first *)
}

let ckpt_key strategy device ~slack ~oracle pool =
  Printf.sprintf "%s|%s|%g|%s%s" (Strategy.to_string strategy) device.Device.short_name
    slack oracle.fo_prefix
    (digest (Array.map plans_signature pool))

let load_checkpoint path key =
  match Checkpoint.load ~path with
  | Ok st when st.ck_key = key -> Some st
  | Ok _ | Error _ -> None

(* End-of-search snapshots of the engine's own accumulators.  These are
   [set], not [incr]: a context reused across searches reports its
   cumulative state.  The workers forked for the search have merged into
   [ctx] by now, but the [cache.*] hit and miss counts still depend on
   which worker evaluated which candidate (each worker has its own memos
   until the search ends), so they are deliberately outside the
   deterministic [search.*] namespace. *)
let snapshot_engine_counters ctx =
  let obs = Eval_ctx.obs ctx in
  if Obs.enabled obs then begin
    let cs = Eval_ctx.cost_stats ctx in
    Obs.set obs "cache.cost.hits" cs.Bounded_cache.cs_hits;
    Obs.set obs "cache.cost.misses" cs.cs_misses;
    Obs.set obs "cache.cost.evictions" cs.cs_evictions;
    Obs.set obs "cache.cost.size" cs.cs_size;
    let fs = Eval_ctx.fisher_stats ctx in
    Obs.set obs "cache.fisher.hits" fs.Bounded_cache.cs_hits;
    Obs.set obs "cache.fisher.misses" fs.cs_misses;
    Obs.set obs "cache.fisher.evictions" fs.cs_evictions;
    Obs.set obs "cache.fisher.size" fs.cs_size;
    let ars = Arena.stats (Eval_ctx.arena ctx) in
    Obs.set obs "cache.arena.bytes" ars.Arena.as_bytes;
    Obs.set obs "cache.arena.reused" ars.as_reused;
    Obs.set obs "cache.arena.fresh" ars.as_fresh;
    Obs.set obs "engine.tune_configs" (Eval_ctx.tune_configs ctx);
    Obs.set obs "engine.faults_injected" (Fault.injected (Eval_ctx.fault ctx))
  end

(* --- guided beam search ------------------------------------------------- *)

(* How many candidates a guided round evaluates, and how many Pareto-front
   members seed the next round.  Small rounds keep the front fresh (later
   rounds see more evaluated survivors); eight extensions per round keeps
   a worker pool busy without outrunning the front. *)
let guided_round_size = 8
let guided_beam_width = 4

(* Next guided round: extend the Pareto front of everything that survived
   so far by one typed site edit each, then top the round up with fresh
   mild typed candidates.  All RNG draws happen here on the main domain,
   so the round sequence is a pure function of the evaluation outcomes —
   deterministic for every worker count. *)
let guided_next_round rng model ~seen ~survivors ~room =
  let fresh plans =
    let s = plans_signature plans in
    if Hashtbl.mem seen s then false
    else begin
      Hashtbl.add seen s ();
      true
    end
  in
  let points =
    List.mapi
      (fun j c ->
        { Pareto.pt_name = string_of_int j;
          pt_latency_s = c.cd_latency_s;
          pt_accuracy = c.cd_fisher })
      survivors
  in
  let front = Pareto.front points in
  let beam =
    List.filteri (fun k _ -> k < guided_beam_width) front
    |> List.map (fun (p : Pareto.point) ->
           (List.nth survivors (int_of_string p.Pareto.pt_name)).cd_plans)
  in
  let extensions =
    List.concat_map
      (fun plans ->
        List.filter_map
          (fun () ->
            match Strategy.extend_plans rng model plans with
            | Some next when fresh next -> Some next
            | Some _ | None -> None)
          [ (); () ])
      beam
  in
  let target = min room guided_round_size in
  let rec top_up acc need attempts =
    if need <= 0 || attempts <= 0 then List.rev acc
    else
      let plans = Strategy.typed_plans rng model in
      if fresh plans then top_up (plans :: acc) (need - 1) (attempts - 1)
      else top_up acc need (attempts - 1)
  in
  let extensions = List.filteri (fun k _ -> k < target) extensions in
  extensions @ top_up [] (target - List.length extensions) (8 * target)

let search ?(candidates = 1000) ?(mutate_prob = 0.25) ?(slack = 0.12)
    ?(stop = fun () -> false) ?budget ?checkpoint ?(checkpoint_every = 25)
    ?(workers = 1) ?schedule:_ ?on_sched_stats
    ?(strategy = Strategy.Random) ~ctx ~rng ~device ~probe model =
  let start = Unix.gettimeofday () in
  let obs = Eval_ctx.obs ctx in
  Obs.with_span obs "search" @@ fun () ->
  (* Candidate-independent setup, hoisted out of the per-candidate hot
     loop: scaled sites and fixed workload dims are computed once per
     search and shared (immutably) by every worker domain. *)
  let prepared = Pipeline.prepare model in
  let baseline =
    Obs.with_span obs "baseline" (fun () ->
        Pipeline.evaluate_prepared ~ctx device prepared
          ~plans:(Array.map (fun _ -> Site_plan.baseline) model.Models.sites))
  in
  (* A guided pool holds only the directed seeds; its later rounds are
     drawn during evaluation from the outcomes so far. *)
  let oracle, pool =
    Obs.with_span obs "generate" (fun () ->
        let oracle = fisher_oracle ~ctx rng model probe in
        let pool =
          match strategy with
          | Strategy.Random -> generate_pool rng model ~candidates ~mutate_prob
          | Strategy.Typed -> typed_pool rng model ~candidates
          | Strategy.Guided -> Array.of_list (uniform_candidates model)
        in
        (oracle, pool))
  in
  let baseline_fisher = oracle.fo_reference.Fisher.total in
  let guided = strategy = Strategy.Guided in
  (* A guided round depends on every outcome before it, so a guided run
     neither resumes nor saves a snapshot. *)
  let checkpoint = if guided then None else checkpoint in
  let n = Array.length pool in
  let target = if guided then candidates else n in
  let key =
    match checkpoint with
    | None -> ""
    | Some _ -> ckpt_key strategy device ~slack ~oracle pool
  in
  let resumed =
    match checkpoint with Some path -> load_checkpoint path key | None -> None
  in
  let first, rejected0, best0, quarantine0 =
    match resumed with
    | Some st -> (min st.ck_done n, st.ck_rejected, st.ck_best, st.ck_quarantine)
    | None -> (0, 0, None, [])
  in
  let rejected = ref rejected0 in
  let best = ref best0 in
  let quarantine_rev = ref quarantine0 in
  let survivors_rev = ref [] in
  let processed = ref 0 in
  let first_skip = ref None in
  let checkpoint_error = ref None in
  let save_checkpoint done_ =
    match checkpoint with
    | None -> ()
    | Some path -> (
        match
          Checkpoint.save ~path
            { ck_key = key;
              ck_done = done_;
              ck_rejected = !rejected;
              ck_best = !best;
              ck_quarantine = !quarantine_rev }
        with
        | Ok () -> ()
        | Error e -> if !checkpoint_error = None then checkpoint_error := Some e)
  in
  (* The budget caps cumulative evaluations (resumed progress included), so
     the range of indices to process this run is known up front — which is
     what lets a worker pool split it deterministically. *)
  let limit = match budget with Some b -> min target (max first b) | None -> target in
  (* Outcomes come in index order.  Once one is skipped, the resume point
     is fixed at its index, so later outcomes (a parallel worker may have
     finished some) are dropped: the resumed run evaluates them again.
     The [search.*] and [analysis.*] counters are booked here, so they
     count exactly the outcomes the result counts, at any worker count. *)
  let book_vetted = function
    | Unchecked -> ()
    | Checked -> Obs.incr obs "analysis.static_checked"
    | Static_rejected ->
        Obs.incr obs "analysis.static_checked";
        Obs.incr obs "analysis.static_reject"
  in
  let merge_outcome i o =
    if !first_skip = None then
      match o with
      | O_survivor cand ->
          incr processed;
          book_vetted Checked;
          Obs.incr obs "search.cost_ranked";
          survivors_rev := cand :: !survivors_rev;
          (match !best with
          | Some b when b.cd_latency_s <= cand.cd_latency_s -> ()
          | _ -> best := Some cand)
      | O_rejected ->
          incr processed;
          book_vetted Checked;
          Obs.incr obs "search.fisher_rejected";
          incr rejected
      | O_failed (label, e, vetted) ->
          incr processed;
          book_vetted vetted;
          Obs.incr obs "search.quarantined";
          quarantine_rev := (label, e) :: !quarantine_rev
      | O_skipped -> first_skip := Some i
  in
  let seen = Hashtbl.create 64 in
  if guided then Array.iter (fun plans -> Hashtbl.replace seen (plans_signature plans) ()) pool;
  (* The batch starting at index [base]: a slice of the pool, ending at the
     next snapshot index when checkpointing, then (guided only) the next
     beam round. *)
  let next_batch base =
    if base >= limit then [||]
    else if base < n then
      let hi =
        match checkpoint with
        | None -> limit
        | Some _ -> min limit (((base / checkpoint_every) + 1) * checkpoint_every)
      in
      Array.sub pool base (min hi n - base)
    else
      Array.of_list
        (guided_next_round rng model ~seen ~survivors:(List.rev !survivors_rev)
           ~room:(limit - base))
  in
  (* Latched: once the hook returns true no later poll calls it again, so
     every candidate that starts afterwards is skipped, at any worker
     count. *)
  let halted = Atomic.make false in
  let stop () = Atomic.get halted || (stop () && (Atomic.set halted true; true)) in
  let explored = ref first in
  Obs.with_span obs "evaluate" (fun () ->
      (* Each batch runs on up to [workers] domains, worker 0 on [ctx] and
         the rest on contexts forked once for the whole search and merged
         back into [ctx] when it ends ([workers = 1] is a plain map over
         [ctx]).  The pool opens inside this span, so the workers'
         recorders fork at its depth.  Outcomes come back in index order,
         so the merge reproduces the serial result for any worker count. *)
      Parallel_eval.with_workers ~workers ~ctx @@ fun pool ->
      let rec loop batch =
        if Array.length batch > 0 then begin
          let base = !explored in
          Array.iteri
            (fun k o -> merge_outcome (base + k) o)
            (Parallel_eval.map_range ?on_stats:on_sched_stats pool ~first:0
               ~limit:(Array.length batch) (fun wctx k ->
                 if stop () then O_skipped
                 else
                   eval_outcome ~ctx:wctx ~slack ~oracle ~device ~prepared model (base + k)
                     batch.(k)));
          explored := base + Array.length batch;
          if !first_skip = None then begin
            if !explored < limit then save_checkpoint !explored;
            loop (next_batch !explored)
          end
        end
      in
      loop (next_batch first));
  (* Resume point: the first unprocessed index. *)
  save_checkpoint (match !first_skip with Some i -> i | None -> !explored);
  (* The [search.*] counters are the deterministic namespace: every value
     below is a pure function of the search configuration, so they are
     bit-identical across worker counts (unlike [cache.*] hit rates, which
     depend on how the pool was split). *)
  let generated = if guided then !explored else n in
  Obs.set obs "search.generated" generated;
  Obs.set obs "search.resumed" first;
  let best_cand =
    Obs.with_span obs "select" (fun () ->
        match !best with
        | Some b -> b
        | None -> fallback_candidate model baseline baseline_fisher)
  in
  snapshot_engine_counters ctx;
  { r_best = best_cand;
    r_baseline = baseline;
    r_baseline_fisher = baseline_fisher;
    r_explored = generated;
    r_rejected = !rejected;
    r_quarantined = sort_quarantine !quarantine_rev;
    r_evaluated = !processed;
    r_complete = limit = target && !first_skip = None;
    r_checkpoint_error = !checkpoint_error;
    r_wall_s = Unix.gettimeofday () -. start }

let speedup r = r.r_baseline.Pipeline.ev_latency_s /. r.r_best.cd_latency_s

let quarantine_counts r = Nas_error.count_classes r.r_quarantined

(* Every device runs the same pool: each search starts from a copy of
   [rng], and the Fisher memo in the shared [ctx] turns every score after
   the first device's into a hit. *)
let search_multi ?candidates ?mutate_prob ?slack ~ctx ~rng ~devices ~probe model =
  List.map
    (fun device ->
      ( device,
        search ?candidates ?mutate_prob ?slack ~ctx ~rng:(Rng.copy rng) ~device ~probe
          model ))
    devices
