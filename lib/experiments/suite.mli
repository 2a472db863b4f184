(** The named experiments: every paper figure/table generator of
    {!Figures} plus the [crashmc] sweep, the [stats] instrumented bench
    and the [service] saturation sweep.  The benchmark suite
    ([bench/main.exe]) and [pactree_bench figure] both read this list;
    DESIGN.md §3 maps names to paper sections. *)

val all : (string * (Scale.t -> unit)) list
