type t = {
  ec_cost_cache : float Bounded_cache.t;
  ec_fisher_cache : Fisher.scores Bounded_cache.t;
  ec_layers : Builder.layer_cache;
  ec_arena : Arena.t;
  ec_fault : Fault.t;
  ec_obs : Obs.t;
  (* A shared ref, not a mutable field: a [with_obs] view is a record
     copy that must keep feeding the same accumulator. *)
  ec_tune_configs : int ref;
}

let create ?(cache_capacity = 8192) ?(fisher_capacity = 4096) ?(fault = Fault.none)
    ?(obs = Obs.disabled) () =
  { ec_cost_cache = Bounded_cache.create ~capacity:cache_capacity ();
    ec_fisher_cache = Bounded_cache.create ~capacity:fisher_capacity ();
    ec_layers = Builder.layer_cache ();
    ec_arena = Arena.create ();
    ec_fault = fault;
    ec_obs = obs;
    ec_tune_configs = ref 0 }

let with_obs t obs = { t with ec_obs = obs }

let fork t =
  { ec_cost_cache = Bounded_cache.create ~capacity:(Bounded_cache.capacity t.ec_cost_cache) ();
    ec_fisher_cache =
      Bounded_cache.create ~capacity:(Bounded_cache.capacity t.ec_fisher_cache) ();
    ec_layers = Builder.layer_cache ();
    ec_arena = Arena.create ();
    ec_fault = Fault.copy t.ec_fault;
    ec_obs = Obs.fork t.ec_obs;
    ec_tune_configs = ref 0 }

let warm_from t ~src =
  Bounded_cache.merge_entries t.ec_cost_cache (Bounded_cache.entries src.ec_cost_cache)
  + Bounded_cache.merge_entries t.ec_fisher_cache
      (Bounded_cache.entries src.ec_fisher_cache)

let absorb_full parent worker =
  Bounded_cache.absorb parent.ec_cost_cache (Bounded_cache.stats worker.ec_cost_cache);
  Bounded_cache.absorb parent.ec_fisher_cache
    (Bounded_cache.stats worker.ec_fisher_cache);
  Arena.absorb parent.ec_arena (Arena.stats worker.ec_arena);
  parent.ec_tune_configs := !(parent.ec_tune_configs) + !(worker.ec_tune_configs);
  Fault.add_injected parent.ec_fault (Fault.injected worker.ec_fault);
  Obs.absorb parent.ec_obs worker.ec_obs;
  ignore (warm_from parent ~src:worker)

(* --- crash-safe cache persistence -------------------------------------- *)

(* The snapshot rides the atomic Checkpoint writer, so a kill mid-save
   leaves the previous snapshot intact.  [cs_schema] is the compatibility
   key: it is the first field, so a foreign checkpoint (e.g. a search
   snapshot, whose first field is also a string) is recognized and refused
   before any other field is touched. *)
type cache_snapshot = {
  cs_schema : string;
  cs_cost : (string * float) list;
  cs_fisher : (string * Fisher.scores) list;
}

let cache_schema = "nas-pte-shared-caches-v2"

let save_caches ~path t =
  Checkpoint.save ~path
    { cs_schema = cache_schema;
      cs_cost = Bounded_cache.entries t.ec_cost_cache;
      cs_fisher = Bounded_cache.entries t.ec_fisher_cache }

let load_caches ~path t =
  match Checkpoint.load ~path with
  | Error e -> Error e
  | Ok (sn : cache_snapshot) ->
      if sn.cs_schema <> cache_schema then
        Error
          (Nas_error.Checkpoint_error
             (Printf.sprintf "load %s: foreign cache snapshot" path))
      else
        Ok
          (Bounded_cache.merge_entries t.ec_cost_cache sn.cs_cost
          + Bounded_cache.merge_entries t.ec_fisher_cache sn.cs_fisher)

let obs t = t.ec_obs
let fault t = t.ec_fault
let cost_cache t = t.ec_cost_cache
let fisher_cache t = t.ec_fisher_cache
let layer_cache t = t.ec_layers
let arena t = t.ec_arena
let cost_stats t = Bounded_cache.stats t.ec_cost_cache
let fisher_stats t = Bounded_cache.stats t.ec_fisher_cache

let note_tune t n = t.ec_tune_configs := !(t.ec_tune_configs) + n
let tune_configs t = !(t.ec_tune_configs)
