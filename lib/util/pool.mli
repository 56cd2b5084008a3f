(** Fixed-size domain pool for deterministic data-parallel fan-out.

    A pool owns [domains - 1] worker domains (the calling domain is the
    remaining participant) that stay alive across jobs, so repeated
    fan-outs — e.g. one per Monte-Carlo run — pay the domain-spawn cost
    once.  Work is expressed as a fixed range of {e chunk} indices;
    workers self-schedule chunks from a shared counter, but every
    chunk's result is stored at its own index, so the reduction is
    ordered and the output is independent of the schedule and of the
    domain count.

    The pool size comes from, in priority order: the [?domains]
    argument, the [PVTOL_DOMAINS] environment variable, and
    [Domain.recommended_domain_count ()].

    Nested use is guarded: calling {!parallel_chunks} from inside a
    pool task (any pool's task) runs the inner job serially in the
    calling worker instead of deadlocking on the pool's own queue.
    Pools are otherwise for use from a single orchestrating domain;
    concurrent jobs on one pool from several domains are not
    supported.

    When metrics are enabled, the pool counts its jobs and chunks in
    {!Metrics} ([pool_jobs_total], [pool_chunks_total]) and keeps its
    own wall-clock totals ({!wall_totals}). *)

type t

val create : ?domains:int -> unit -> t
(** [create ()] spawns the worker domains.  [?domains] must be >= 1;
    [1] means no workers are spawned and every job runs serially in the
    caller.  Raises [Invalid_argument] on a non-positive count. *)

val domains : t -> int
(** Total parallelism of the pool, including the calling domain. *)

val default_domain_count : unit -> int
(** [PVTOL_DOMAINS] if set to a positive integer (clamped to 64), else
    [Domain.recommended_domain_count ()].  A non-numeric, zero or
    negative [PVTOL_DOMAINS] is ignored with a single warning on stderr
    and the hardware default is used. *)

val shared : unit -> t
(** A lazily-created process-wide pool of {!default_domain_count}
    domains, shut down automatically at exit.  Library code that has
    not been handed an explicit pool should use this one. *)

val shutdown : t -> unit
(** Join the worker domains.  Idempotent.  Any later job on the pool
    runs serially in the caller.  Never call it from inside a task. *)

val parallel_chunks :
  t -> chunks:int -> init:(worker:int -> 's) -> f:('s -> int -> 'a) -> 'a array
(** [parallel_chunks pool ~chunks ~init ~f] evaluates [f state c] for
    every chunk index [c] in [0 .. chunks-1] and returns the results in
    chunk order.  Each participating domain first builds its private
    [state] with [init ~worker] (worker ids are dense, assigned per
    job), so scratch buffers can be reused across the chunks a worker
    processes without any sharing.

    If one or more chunks raise, the remaining chunks still run and
    the exception of the lowest-numbered failing chunk is re-raised in
    the caller; the pool stays usable. *)

(** {1 Wall-clock totals} *)

type wall_totals = {
  queue_wait_s : float;  (** worker idle time between jobs, summed *)
  queue_waits : int;     (** idle waits timed *)
  job_s : float;         (** fan-out wall time of {!parallel_chunks} jobs *)
  jobs_timed : int;      (** fan-outs timed *)
}

val wall_totals : unit -> wall_totals
(** Process-wide totals over every pool.  They move only while
    {!Metrics.enabled}: each parallel job adds its fan-out wall time
    once and each worker its idle wait before the job, one update per
    job per domain; the serial path is never timed.  With metrics
    disabled no clock is read.  These are wall-clock figures, so they
    live here rather than in the counter registry. *)
