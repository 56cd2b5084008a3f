(** Reproduction harness: one entry per table and figure of the paper's
    evaluation, plus the extensions.  Every exhibit renders the same
    rows/series the paper reports (see EXPERIMENTS.md for the
    side-by-side comparison).

    Every exhibit renders from a {!Flow.t} handle: the stage graph
    memoizes every intermediate (placement, STA, Monte Carlo per
    position, both slicing variants, power per configuration), so each
    exhibit forces only what it reads and the expensive work runs once
    per handle no matter how many exhibits are rendered. *)

val exhibits : (string * string * (Flow.t -> string)) list
(** Every exhibit as [(name, one-line doc, render)], in paper order:
    the paper's figures and tables ([fig2] .. [energy]), then the
    extensions.  The one registry {!all} and the CLI's exhibit
    subcommands read. *)

val all : Flow.t -> string
(** Every exhibit of {!exhibits}, in order, joined by blank lines
    (warms the Monte-Carlo stage for all die positions on the domain
    pool first).  Each exhibit runs under a {!Pvtol_util.Trace} span
    named by its registry key: a span, not a stage, so it memoizes
    nothing and counts no stage compute. *)
