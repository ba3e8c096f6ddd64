(* Benchmark-side spans, kept in memory, and the wall-clock attribution of
   a traced run to the program's layers.

   A span is a named interval tagged with the layer it measures and the
   span that caused it.  The benchmark records spans around its own calls
   into each layer and imports the spans the program's [Obs] recorder
   already emits, so one tree covers the traced run.  [attribute] splits
   the traced wall time over layers: every instant goes to the innermost
   spans open at that instant (split evenly when several domains are
   inside different spans at once), and instants inside no span are the
   unattributed remainder.  On a serial timeline a span's share is its
   duration minus the time its child spans cover — its self time. *)

type span = {
  sp_id : int;
  sp_parent : int;  (* -1 for a top-level span *)
  sp_layer : string;
  sp_name : string;
  sp_start : float;
  sp_stop : float;
}

type t = {
  lock : Mutex.t;
  mutable next_id : int;
  mutable spans : span list;  (* newest first *)
  mutable stack : int list;  (* open spans of the main thread *)
}

let now = Unix.gettimeofday

let create () = { lock = Mutex.create (); next_id = 0; spans = []; stack = [] }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let current t = match t.stack with id :: _ -> id | [] -> -1

let fresh_id t =
  locked t (fun () ->
      let id = t.next_id in
      t.next_id <- id + 1;
      id)

let push t ~id ~parent ~layer ~name ~start ~stop =
  locked t (fun () ->
      t.spans <-
        { sp_id = id; sp_parent = parent; sp_layer = layer; sp_name = name;
          sp_start = start; sp_stop = stop }
        :: t.spans)

(* Safe to call from any domain: served requests are recorded with an
   explicit parent. *)
let record t ~parent ~layer ~name ~start ~stop =
  let id = fresh_id t in
  push t ~id ~parent ~layer ~name ~start ~stop;
  id

(* A span around [f] on the main thread; spans opened inside it are its
   children. *)
let with_span t ~layer name f =
  let id = fresh_id t and parent = current t in
  t.stack <- id :: t.stack;
  let start = now () in
  Fun.protect f ~finally:(fun () ->
      t.stack <- List.tl t.stack;
      push t ~id ~parent ~layer ~name ~start ~stop:(now ()))

(* The layer each [Obs] span of the search measures. *)
let layer_of_obs_span = function
  | "legality" -> "analysis"
  | "fisher" -> "fisher"
  | "baseline" | "cost" -> "cost"
  | _ -> "search" (* search, generate, evaluate, select *)

(* Import an [Obs] trace as spans under [parent].  Events are well nested
   (worker buffers are appended whole, in candidate order), so a stack
   pairs every begin with its end. *)
let add_obs_events t ~parent events =
  let stack = ref [ (parent, "", 0.0) ] in
  List.iter
    (fun (e : Obs_event.t) ->
      match e.e_kind with
      | Obs_event.Span_begin -> stack := (fresh_id t, e.e_name, e.e_t) :: !stack
      | Obs_event.Span_end -> (
          match !stack with
          | (id, name, start) :: ((parent, _, _) :: _ as rest) when name = e.e_name ->
              stack := rest;
              push t ~id ~parent ~layer:(layer_of_obs_span name) ~name ~start ~stop:e.e_t
          | _ -> failwith ("unbalanced trace at span_end " ^ e.e_name))
      | Obs_event.Note -> ())
    events

let spans t = locked t (fun () -> List.rev t.spans)

(* Durations (seconds) of the spans called [name], in start order. *)
let durations t name =
  spans t
  |> List.filter (fun s -> s.sp_name = name)
  |> List.map (fun s -> s.sp_stop -. s.sp_start)
  |> Array.of_list

type attribution = {
  at_wall_s : float;
  at_layers : (string * float) list;  (* layer -> seconds *)
  at_unattributed_s : float;
}

(* Attribute the interval [t0, t1] to layers; see the header comment. *)
let attribute t ~t0 ~t1 =
  (* Spans with no extent inside [t0, t1] hold no time (and a zero-length
     one would otherwise close before it opens). *)
  let all =
    spans t
    |> List.filter (fun s -> Float.min t1 s.sp_stop > Float.max t0 s.sp_start)
    |> Array.of_list
  in
  let n = Array.length all in
  let index = Hashtbl.create n in
  Array.iteri (fun i s -> Hashtbl.replace index s.sp_id i) all;
  let parent_ix =
    Array.map (fun s -> Option.value (Hashtbl.find_opt index s.sp_parent) ~default:(-1)) all
  in
  (* Sweep the span boundaries in time order; between two boundaries the
     open set is constant.  [open_children.(i)] counts open children of
     span i, so the innermost open spans are those with a count of 0. *)
  let depth = Array.make n (-1) in
  let rec depth_of i =
    if depth.(i) < 0 then
      depth.(i) <- (if parent_ix.(i) < 0 then 0 else 1 + depth_of parent_ix.(i));
    depth.(i)
  in
  let clamp x = Float.max t0 (Float.min t1 x) in
  let events =
    Array.concat
      [ Array.mapi (fun i s -> (clamp s.sp_start, 1, depth_of i, i)) all;
        Array.mapi (fun i s -> (clamp s.sp_stop, 0, - depth_of i, i)) all ]
  in
  (* At equal times closes sort before opens (a zero-length gap is not an
     overlap), parents open before their children and close after them. *)
  Array.sort compare events;
  let is_open = Array.make n false in
  let open_children = Array.make n 0 in
  let acc = Hashtbl.create 8 in
  let add layer dt =
    Hashtbl.replace acc layer (dt +. Option.value (Hashtbl.find_opt acc layer) ~default:0.0)
  in
  let open_list = ref [] in
  let covered = ref 0.0 in
  let last = ref t0 in
  Array.iter
    (fun (time, kind, _, i) ->
      let dt = time -. !last in
      if dt > 0.0 then begin
        let leaves = List.filter (fun j -> open_children.(j) = 0) !open_list in
        match leaves with
        | [] -> ()
        | _ ->
            covered := !covered +. dt;
            let share = dt /. float_of_int (List.length leaves) in
            List.iter (fun j -> add all.(j).sp_layer share) leaves
      end;
      last := time;
      let p = parent_ix.(i) in
      if kind = 1 then begin
        is_open.(i) <- true;
        open_list := i :: !open_list;
        if p >= 0 && is_open.(p) then open_children.(p) <- open_children.(p) + 1
      end
      else begin
        is_open.(i) <- false;
        open_list := List.filter (fun j -> j <> i) !open_list;
        if p >= 0 && is_open.(p) then open_children.(p) <- open_children.(p) - 1
      end)
    events;
  let wall = t1 -. t0 in
  { at_wall_s = wall;
    at_layers = List.sort compare (Hashtbl.fold (fun k v l -> (k, v) :: l) acc []);
    at_unattributed_s = wall -. !covered }

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"layer\":%s,\"name\":%s,\"start\":%.6f,\"stop\":%.6f}\n"
        s.sp_id s.sp_parent (Obs_event.json_string s.sp_layer)
        (Obs_event.json_string s.sp_name) s.sp_start s.sp_stop)
    (spans t);
  close_out oc
