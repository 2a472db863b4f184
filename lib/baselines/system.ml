module Tree = Pactree.Tree

type service = { body : unit -> unit; shutdown : unit -> unit }

type t = {
  b_index : Index_intf.index;
  b_recover : unit -> unit;
  b_invariants : unit -> unit;
  b_quiesce : unit -> unit;
  b_service : service option;
}

type kind = Pactree | Pdlart | Fastfair | Bztree | Fptree

let all = [ Pactree; Pdlart; Bztree; Fastfair; Fptree ]

let name = function
  | Pactree -> "PACTree"
  | Pdlart -> "PDL-ART"
  | Fastfair -> "FastFair"
  | Bztree -> "BzTree"
  | Fptree -> "FPTree"

let of_string s =
  match String.lowercase_ascii s with
  | "pactree" -> Some Pactree
  | "pdlart" | "pdl-art" -> Some Pdlart
  | "fastfair" -> Some Fastfair
  | "bztree" -> Some Bztree
  | "fptree" -> Some Fptree
  | _ -> None

(* The authors' FPTree binary does not support variable-length keys
   (paper §6), so string-key sweeps skip it. *)
let supports_strings = function Fptree -> false | _ -> true

let epoch_quiesce epoch =
  (* Run leftover deferred frees now: their closures capture volatile
     offsets from the finished run and must not fire on a restored
     image. *)
  let budget = ref 8 in
  while Pactree.Epoch.pending epoch > 0 && !budget > 0 do
    Pactree.Epoch.try_advance epoch;
    decr budget
  done

let pactree_service t =
  {
    (* the same service is respawned for the load and run phases:
       clear any stale shutdown request first *)
    body =
      (fun () ->
        Tree.reset_shutdown t;
        Tree.updater_loop t);
    shutdown = (fun () -> Tree.request_shutdown t);
  }

let pactree t =
  {
    b_index = Pactree_index.wrap t;
    b_recover = (fun () -> ignore (Tree.recover t : int));
    b_invariants = (fun () -> ignore (Tree.check_invariants t : int));
    b_quiesce =
      (fun () ->
        Tree.drain_smo t;
        epoch_quiesce (Tree.epoch t));
    b_service = Some (pactree_service t);
  }

let make machine ?(string_keys = false) ?cfg ~data_capacity ~search_capacity kind =
  match kind with
  | Pactree ->
      let cfg =
        match cfg with
        | Some c -> c
        | None ->
            {
              Tree.default_config with
              key_inline = (if string_keys then 32 else 8);
              data_capacity;
              search_capacity;
            }
      in
      pactree (Tree.create machine ~cfg ())
  | Pdlart ->
      let t = Pdlart.create machine ~capacity:data_capacity () in
      {
        b_index = Index_intf.Index ((module Pdlart.Index), t);
        b_recover = (fun () -> Pdlart.recover t);
        b_invariants = ignore;
        b_quiesce = (fun () -> epoch_quiesce (Pdlart.epoch t));
        b_service = None;
      }
  | Fastfair ->
      let t = Fastfair.create machine ~string_keys ~capacity:data_capacity () in
      {
        b_index = Index_intf.Index ((module Fastfair.Index), t);
        b_recover = (fun () -> Fastfair.recover t);
        b_invariants = (fun () -> ignore (Fastfair.check_invariants t : int));
        b_quiesce = ignore;
        b_service = None;
      }
  | Bztree ->
      (* BzTree copy-on-writes nodes without reclaiming (see bztree.ml):
         give it headroom *)
      let t = Bztree.create machine ~string_keys ~capacity:(4 * data_capacity) () in
      {
        b_index = Index_intf.Index ((module Bztree.Index), t);
        b_recover = (fun () -> Bztree.recover t);
        b_invariants = (fun () -> ignore (Bztree.check_invariants t : int));
        b_quiesce = ignore;
        b_service = None;
      }
  | Fptree ->
      let t = Fptree.create machine ~string_keys ~capacity:data_capacity () in
      {
        b_index = Index_intf.Index ((module Fptree.Index), t);
        b_recover = (fun () -> Fptree.recover t);
        b_invariants = (fun () -> ignore (Fptree.check_invariants t : int));
        b_quiesce = ignore;
        b_service = None;
      }
