(** Systems under test: a system from the registry
    ({!Baselines.System}) together with the machine it lives on.

    The harness uses the system's hooks: [b_recover] rebuilds volatile
    state from a restored image, [b_invariants] is the index's own
    structural checker, and [b_quiesce] runs before enumeration to
    complete background work (SMO drain, epoch-deferred frees) so no
    stale closure from the recorded run fires on a restored image.
    Keep pool capacities small: every materialised crash state blits
    the full image of every pool on [machine]. *)

type t = { name : string; machine : Nvm.Machine.t; system : Baselines.System.t }

(** [create kind] builds the registry system on a fresh single-socket
    machine with small (256 KB) pools. *)
val create : ?string_keys:bool -> Baselines.System.kind -> t
