type thread = {
  id : int;
  name : string;
  numa : int;
  extra : float array;
      (* one cell: accumulated `charge` not yet reflected in the clock.
         A float array stores it unboxed, so [charge] never allocates
         (a mutable float field in this mixed record would box). *)
}

type t = {
  mutable clock : float;
  events : (unit -> unit) Event_queue.t;
  mutable current : thread option;
  mutable next_id : int;
  mutable live : int;
}

(* The running scheduler for the (single) host thread.  The simulation
   is cooperative, so a plain ref is race-free. *)
let active : t option ref = ref None

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
        (* [Suspend park] hands the caller's "resume" closure to
           [park], which stores it (e.g. on a wait queue). *)

let create ?(start = 0.0) () =
  { clock = start; events = Event_queue.create (); current = None; next_id = 0; live = 0 }

let now t = t.clock

let flush_extra thread =
  let e = thread.extra.(0) in
  thread.extra.(0) <- 0.0;
  e

let spawn t ?(numa = 0) ~name body =
  let thread = { id = t.next_id; name; numa; extra = [| 0.0 |] } in
  t.next_id <- t.next_id + 1;
  t.live <- t.live + 1;
  let open Effect.Deep in
  let start () =
    t.current <- Some thread;
    match_with
      (fun () ->
        body ();
        t.live <- t.live - 1)
      ()
      {
        retc = (fun () -> t.current <- None);
        exnc =
          (fun exn ->
            t.current <- None;
            raise exn);
        effc =
          (fun (type c) (eff : c Effect.t) ->
            match eff with
            | Delay seconds ->
                Some
                  (fun (k : (c, _) continuation) ->
                    let pause = seconds +. flush_extra thread in
                    Event_queue.add t.events
                      ~time:(t.clock +. pause)
                      (fun () ->
                        t.current <- Some thread;
                        continue k ());
                    t.current <- None)
            | Suspend park ->
                Some
                  (fun (k : (c, _) continuation) ->
                    let resume () =
                      Event_queue.add t.events ~time:t.clock (fun () ->
                          t.current <- Some thread;
                          continue k ())
                    in
                    park resume;
                    t.current <- None)
            | _ -> None);
      }
  in
  Event_queue.add t.events ~time:t.clock start

(* Power-failure semantics: drop every pending event and suspended
   thread.  When called from inside a simulated thread (the "crasher"),
   that thread keeps running to completion. *)
let abort_all t =
  while not (Event_queue.is_empty t.events) do
    ignore (Event_queue.pop_min t.events)
  done;
  t.live <- (if t.current = None then 0 else 1)

let run t =
  let saved = !active in
  active := Some t;
  let finish () = active := saved in
  (try
     while not (Event_queue.is_empty t.events) do
       let time, action = Event_queue.pop_min t.events in
       t.clock <- max t.clock time;
       action ()
     done
   with exn ->
     finish ();
     raise exn);
  finish ();
  if t.live > 0 then
    invalid_arg
      (Printf.sprintf "Sched.run: %d thread(s) blocked forever (missing signal?)" t.live)

let current () =
  match !active with
  | Some t -> t.current
  | None -> None

let running () = current () <> None

let self () = match current () with Some _ -> !active | None -> None

let current_id () = match current () with Some th -> th.id | None -> -1

let current_numa () = match current () with Some th -> th.numa | None -> 0

let current_name () = match current () with Some th -> th.name | None -> "main"

let delay seconds =
  match current () with
  | Some _ -> Effect.perform (Delay seconds)
  | None -> ()

let charge seconds =
  match current () with Some th -> th.extra.(0) <- th.extra.(0) +. seconds | None -> ()

let pending_charge () = match current () with Some th -> th.extra.(0) | None -> 0.0

let yield () = delay 0.0

module Waitq = struct
  type t = { mutable queue : (unit -> unit) list (* reversed FIFO *) }

  let create () = { queue = [] }

  let wait wq =
    match current () with
    | None -> invalid_arg "Waitq.wait outside a simulated thread"
    | Some _ ->
        (* Enqueue-and-suspend must be atomic with respect to the
           caller's wait-condition check: no simulated-time action may
           occur in between, or a concurrent signal could be lost.
           Accumulated [charge] time simply folds into the next
           delay after wake-up. *)
        Effect.perform (Suspend (fun resume -> wq.queue <- resume :: wq.queue))

  let signal_all _sched wq =
    let resumers = List.rev wq.queue in
    wq.queue <- [];
    List.iter (fun resume -> resume ()) resumers

  let signal_one _sched wq =
    match List.rev wq.queue with
    | [] -> ()
    | resume :: rest ->
        wq.queue <- List.rev rest;
        resume ()

  let waiters wq = List.length wq.queue
end
