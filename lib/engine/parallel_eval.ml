let max_workers = 64

type schedule = Dynamic

type worker_stat = {
  ws_items : int;
  ws_steals : int;
  ws_busy_s : float;
}

type run_stats = {
  rs_workers : int;
  rs_wall_s : float;
  rs_worker : worker_stat array;
}

(* A search's worker contexts.  Worker 0 is the caller's context itself;
   workers 1..n-1 are forked once, warm with its memo entries, and live
   until the scope closes, so every batch of the search reuses their
   caches, layer caches and arenas. *)
type pool = Eval_ctx.t array

let with_workers ~workers ~ctx f =
  let n = max 1 (min workers max_workers) in
  let pool =
    Array.init n (fun d ->
        if d = 0 then ctx
        else begin
          let w = Eval_ctx.fork ctx in
          ignore (Eval_ctx.warm_from w ~src:ctx);
          w
        end)
  in
  (* Each fork started with zeroed counters and a fresh fault count, so
     absorbing it once, at the end, books every statistic exactly once. *)
  Fun.protect
    ~finally:(fun () -> for d = 1 to n - 1 do Eval_ctx.absorb_full ctx pool.(d) done)
    (fun () -> f pool)

(* The parallel path.  Idle domains pull the next unclaimed index from a
   shared atomic counter, and results land in slot [i - first] no matter
   which domain computed them, so the caller's sequential merge replays
   index order exactly.

   Trace determinism: when the parent recorder is live, each item runs
   against a per-item [Obs] fork (sharing the worker's caches and fault
   plan through [Eval_ctx.with_obs]) and the item recorders are absorbed
   into the parent in index order after the join.  Which worker evaluated
   an item is timing-dependent, but the merged trace content never is. *)
let run_parallel ~on_stats ~workers ~pool ~first ~limit ~total f =
  let parent_obs = Eval_ctx.obs pool.(0) in
  let obs_enabled = Obs.enabled parent_obs in
  let results = Array.make total None in
  let item_obs = if obs_enabled then Array.make total None else [||] in
  let items = Array.make workers 0 in
  let steals = Array.make workers 0 in
  let busy = Array.make workers 0.0 in
  let chunk = (total + workers - 1) / workers in
  let eval d wctx i =
    let t0 = Obs_clock.wall () in
    let v =
      if obs_enabled then begin
        let iobs = Obs.fork (Eval_ctx.obs wctx) in
        let r = f (Eval_ctx.with_obs wctx iobs) i in
        item_obs.(i - first) <- Some iobs;
        r
      end
      else f wctx i
    in
    results.(i - first) <- Some v;
    items.(d) <- items.(d) + 1;
    (* A steal = an item outside the worker's fair-share contiguous chunk:
       the work the scheduler moved to keep this domain busy. *)
    let off = i - first in
    if off < d * chunk || off >= (d + 1) * chunk then
      steals.(d) <- steals.(d) + 1;
    busy.(d) <- busy.(d) +. (Obs_clock.wall () -. t0)
  in
  let next = Atomic.make first in
  let run d =
    let wctx = pool.(d) in
    let continue = ref true in
    while !continue do
      let i = Atomic.fetch_and_add next 1 in
      if i < limit then eval d wctx i else continue := false
    done
  in
  let t0 = Obs_clock.wall () in
  let domains =
    Array.init (workers - 1) (fun d -> Domain.spawn (fun () -> run (d + 1)))
  in
  let head_exn = (try run 0; None with e -> Some e) in
  let tail_exn =
    Array.fold_left
      (fun acc d -> try Domain.join d; acc with e -> if acc = None then Some e else acc)
      None domains
  in
  (match head_exn, tail_exn with Some e, _ | None, Some e -> raise e | None, None -> ());
  let wall = Obs_clock.wall () -. t0 in
  (* Deterministic merge: per-item telemetry in index order.  The
     workers' caches and counters reach the parent when the pool closes. *)
  if obs_enabled then
    Array.iter
      (function Some o -> Obs.absorb parent_obs o | None -> ())
      item_obs;
  (match on_stats with
  | None -> ()
  | Some k ->
      k
        { rs_workers = workers;
          rs_wall_s = wall;
          rs_worker =
            Array.init workers (fun d ->
                { ws_items = items.(d); ws_steals = steals.(d); ws_busy_s = busy.(d) }) });
  Array.map (function Some v -> v | None -> assert false) results

let map_range ?on_stats pool ~first ~limit f =
  let total = max 0 (limit - first) in
  if total = 0 then begin
    (match on_stats with
    | None -> ()
    | Some k ->
        k { rs_workers = 0; rs_wall_s = 0.0; rs_worker = [||] });
    [||]
  end
  else
    let workers = min (Array.length pool) total in
    match workers, on_stats with
    | 1, None ->
        (* Scheduling-overhead guard: one worker is the plain sequential
           map over the parent context itself — no atomics, no timing. *)
        Array.init total (fun i -> f pool.(0) (first + i))
    | 1, Some k ->
        let t0 = Obs_clock.wall () in
        let out = Array.init total (fun i -> f pool.(0) (first + i)) in
        let wall = Obs_clock.wall () -. t0 in
        k
          { rs_workers = 1;
            rs_wall_s = wall;
            rs_worker = [| { ws_items = total; ws_steals = 0; ws_busy_s = wall } |] };
        out
    | _ -> run_parallel ~on_stats ~workers ~pool ~first ~limit ~total f
