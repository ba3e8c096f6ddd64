type stats = { as_bytes : int; as_reused : int; as_fresh : int }

(* [free] maps a length to the free buffers of that length; [taken] lists
   every buffer handed out since the scope began. *)
type t = {
  busy : bool Atomic.t;
  free : (int, float array list) Hashtbl.t;
  mutable taken : float array list;
  mutable reused : int;
  mutable fresh : int;
}

let create () =
  { busy = Atomic.make false; free = Hashtbl.create 64; taken = []; reused = 0; fresh = 0 }

let push t b =
  let n = Array.length b in
  Hashtbl.replace t.free n (b :: Option.value ~default:[] (Hashtbl.find_opt t.free n))

(* A buffer of length [n] for the current scope: a free one (refilled by
   [refill]), or a new one from [make]. *)
let take t n ~refill ~make =
  if not (Atomic.get t.busy) then invalid_arg "Arena: buffer taken outside Arena.scoped";
  let b =
    match Hashtbl.find_opt t.free n with
    | Some (b :: rest) ->
        Hashtbl.replace t.free n rest;
        t.reused <- t.reused + 1;
        refill b;
        b
    | Some [] | None ->
        t.fresh <- t.fresh + 1;
        make n
  in
  t.taken <- b :: t.taken;
  b

let zeros arena shape =
  match arena with
  | None -> Tensor.zeros shape
  | Some t ->
      assert (Array.for_all (fun d -> d > 0) shape);
      let n = Array.fold_left ( * ) 1 shape in
      Tensor.of_array shape
        (take t n ~refill:(fun b -> Array.fill b 0 n 0.0) ~make:(fun n -> Array.make n 0.0))

let floats arena n =
  match arena with
  | None -> Array.create_float n
  | Some t -> take t n ~refill:ignore ~make:Array.create_float

let uninit arena shape =
  assert (Array.for_all (fun d -> d > 0) shape);
  Tensor.of_array shape (floats arena (Array.fold_left ( * ) 1 shape))

(* The buffers this scope took become the whole free list. *)
let reset t =
  Hashtbl.clear t.free;
  List.iter (push t) t.taken;
  t.taken <- []

let scoped t f =
  if not (Atomic.compare_and_set t.busy false true) then
    invalid_arg "Arena.scoped: the arena is already in use";
  Fun.protect
    ~finally:(fun () ->
      reset t;
      Atomic.set t.busy false)
    f

let stats t =
  let words = List.fold_left (fun acc b -> acc + Array.length b) in
  let held = Hashtbl.fold (fun _ bs acc -> words acc bs) t.free (words 0 t.taken) in
  { as_bytes = 8 * held; as_reused = t.reused; as_fresh = t.fresh }

let absorb t s =
  t.reused <- t.reused + s.as_reused;
  t.fresh <- t.fresh + s.as_fresh
