(* Bucket upper bounds in seconds: nine decades from 1µs up, plus an
   overflow bucket.  Fixed globally so histograms from different workers
   merge bucket-by-bucket. *)
let bucket_bounds = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0; 100.0 |]

let n_buckets = Array.length bucket_bounds + 1

let bucket_of v =
  let i = ref 0 in
  while !i < Array.length bucket_bounds && v > bucket_bounds.(!i) do incr i done;
  !i

type histogram = {
  h_count : int;
  h_sum_s : float;
  h_min_s : float;
  h_max_s : float;
  h_buckets : int array;
}

type hist_state = {
  mutable hs_count : int;
  mutable hs_sum : float;
  mutable hs_min : float;
  mutable hs_max : float;
  hs_buckets : int array;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, hist_state) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 32; histograms = Hashtbl.create 16 }

let counter_ref t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace t.counters name r;
      r

let incr t name = Stdlib.incr (counter_ref t name)
let add t name n = counter_ref t name := !(counter_ref t name) + n
let set t name n = counter_ref t name := n
let counter t name = match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let hist_state t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
      let h =
        { hs_count = 0;
          hs_sum = 0.0;
          hs_min = infinity;
          hs_max = neg_infinity;
          hs_buckets = Array.make n_buckets 0 }
      in
      Hashtbl.replace t.histograms name h;
      h

let observe t name v =
  let h = hist_state t name in
  h.hs_count <- h.hs_count + 1;
  h.hs_sum <- h.hs_sum +. v;
  if v < h.hs_min then h.hs_min <- v;
  if v > h.hs_max then h.hs_max <- v;
  let b = h.hs_buckets.(bucket_of v) in
  h.hs_buckets.(bucket_of v) <- b + 1

let snapshot h =
  { h_count = h.hs_count;
    h_sum_s = h.hs_sum;
    h_min_s = h.hs_min;
    h_max_s = h.hs_max;
    h_buckets = Array.copy h.hs_buckets }

let histogram t name = Option.map snapshot (Hashtbl.find_opt t.histograms name)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters t = List.map (fun (k, r) -> (k, !r)) (sorted_bindings t.counters)
let histograms t = List.map (fun (k, h) -> (k, snapshot h)) (sorted_bindings t.histograms)

let merge t other =
  List.iter (fun (k, n) -> add t k n) (counters other);
  Hashtbl.iter
    (fun k oh ->
      let h = hist_state t k in
      h.hs_count <- h.hs_count + oh.hs_count;
      h.hs_sum <- h.hs_sum +. oh.hs_sum;
      if oh.hs_min < h.hs_min then h.hs_min <- oh.hs_min;
      if oh.hs_max > h.hs_max then h.hs_max <- oh.hs_max;
      Array.iteri (fun i n -> h.hs_buckets.(i) <- h.hs_buckets.(i) + n) oh.hs_buckets)
    other.histograms

let clear t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.histograms
