type 'a t = {
  table : (string, 'a) Hashtbl.t;
  order : string Queue.t;
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  cs_hits : int;
  cs_misses : int;
  cs_size : int;
  cs_capacity : int;
  cs_evictions : int;
}

let create ?(capacity = 8192) () =
  { table = Hashtbl.create 1024;
    order = Queue.create ();
    capacity = max 1 capacity;
    hits = 0;
    misses = 0;
    evictions = 0 }

(* Evict oldest-first down to one free slot, then add [key]. *)
let insert t key v =
  while Hashtbl.length t.table >= t.capacity && not (Queue.is_empty t.order) do
    Hashtbl.remove t.table (Queue.pop t.order);
    t.evictions <- t.evictions + 1
  done;
  Hashtbl.replace t.table key v;
  Queue.push key t.order

let remember t key f =
  match Hashtbl.find_opt t.table key with
  | Some v ->
      t.hits <- t.hits + 1;
      v
  | None ->
      t.misses <- t.misses + 1;
      let v = f () in
      insert t key v;
      v

let find_opt t key = Hashtbl.find_opt t.table key

let capacity t = t.capacity

let stats t =
  { cs_hits = t.hits;
    cs_misses = t.misses;
    cs_size = Hashtbl.length t.table;
    cs_capacity = t.capacity;
    cs_evictions = t.evictions }

let absorb t (s : stats) =
  t.hits <- t.hits + s.cs_hits;
  t.misses <- t.misses + s.cs_misses;
  t.evictions <- t.evictions + s.cs_evictions

let entries t =
  Queue.fold
    (fun acc key ->
      match Hashtbl.find_opt t.table key with
      | Some v -> (key, v) :: acc
      | None -> acc)
    [] t.order
  |> List.rev

let merge_entries t kvs =
  List.fold_left
    (fun inserted (key, v) ->
      if Hashtbl.mem t.table key then inserted
      else begin
        insert t key v;
        inserted + 1
      end)
    0 kvs
