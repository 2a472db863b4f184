module Machine = Nvm.Machine

type t = {
  machine : Machine.t;
  mutable events_rev : Machine.persist_event list;
  mutable count : int;
  base : (int, Bytes.t) Hashtbl.t; (* pool id -> media image at [start] *)
  mutable listener : Machine.listener option;
  mutable cache : Machine.persist_event array option;
}

let record t ev =
  t.events_rev <- ev :: t.events_rev;
  t.count <- t.count + 1;
  t.cache <- None

let start machine =
  let t =
    {
      machine;
      events_rev = [];
      count = 0;
      base = Hashtbl.create 8;
      listener = None;
      cache = None;
    }
  in
  List.iter
    (fun pv ->
      if not pv.Machine.pv_volatile then
        Hashtbl.replace t.base pv.Machine.pv_id (pv.Machine.pv_media ()))
    (Machine.pool_views machine);
  let on_event = function
    | Machine.Clwb { staged = None; _ } -> () (* staged nothing: no crash-state effect *)
    | Machine.Store { data; _ } as ev ->
        (* copy the line now: the cache changes after the callback *)
        ignore (Lazy.force data);
        record t ev
    | ev -> record t ev
  in
  t.listener <- Some (Machine.add_listener machine on_event);
  t

let stop t =
  Option.iter (Machine.remove_listener t.machine) t.listener;
  t.listener <- None

let machine t = t.machine

let seq t = t.count

let events t =
  match t.cache with
  | Some a -> a
  | None ->
      let a = Array.of_list (List.rev t.events_rev) in
      t.cache <- Some a;
      a

let base_media t pool_id = Hashtbl.find_opt t.base pool_id
