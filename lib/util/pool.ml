type t = {
  domains : int;
  lock : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : (unit -> unit) option;
  mutable generation : int;  (* bumped per job; workers run each gen once *)
  mutable active : int;      (* workers still inside the current job *)
  mutable stopped : bool;
  mutable workers : unit Domain.t array;
}

(* True while the current domain is executing a pool task: a nested
   parallel_chunks must not block on the pool it is already servicing. *)
let inside_task : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let domains t = t.domains

(* Telemetry: job/chunk counts are deterministic for a given workload
   and live in the Metrics registry.  The wait/latency totals are
   wall-clock, so they stay here, under one mutex: one update per job
   per domain, only when metrics are enabled (gettimeofday stays off
   the disabled path). *)
let m_jobs = Metrics.counter "pool_jobs_total"
let m_chunks = Metrics.counter "pool_chunks_total"

type wall_totals = {
  queue_wait_s : float;
  queue_waits : int;
  job_s : float;
  jobs_timed : int;
}

let walls_mu = Mutex.create ()

let walls =
  ref { queue_wait_s = 0.0; queue_waits = 0; job_s = 0.0; jobs_timed = 0 }

let wall_totals () =
  Mutex.lock walls_mu;
  let w = !walls in
  Mutex.unlock walls_mu;
  w

(* Start of a timed interval: 0.0 (untimed) when metrics are off. *)
let timer_start () = if Metrics.enabled () then Unix.gettimeofday () else 0.0

(* Fold the interval since [t0] into the totals.  An interval that
   began or ends with metrics off is dropped like any disabled
   update. *)
let record t0 update =
  if t0 > 0.0 && Metrics.enabled () then begin
    let dt = Unix.gettimeofday () -. t0 in
    Mutex.lock walls_mu;
    walls := update !walls dt;
    Mutex.unlock walls_mu
  end

(* A bad PVTOL_DOMAINS is a user mistake worth one loud warning, not a
   silent fall-through to the hardware default.  The latch is an
   Atomic (inside Log.once): two domains parsing PVTOL_DOMAINS
   concurrently still emit exactly one warning. *)
let env_warned = Log.once ()

let warn_env s reason =
  Log.warn_once env_warned
    "ignoring PVTOL_DOMAINS=%S (%s); using %d domains" s reason
    (max 1 (Domain.recommended_domain_count ()))

(* An empty value counts as unset: OCaml's [Unix] has no [unsetenv], so
   a caller that clears the variable can only set it to "". *)
let env_domain_count () =
  match Sys.getenv_opt "PVTOL_DOMAINS" with
  | None -> None
  | Some s when String.trim s = "" -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some (min n 64)
    | Some n ->
      warn_env s
        (Printf.sprintf "must be a positive domain count, got %d" n);
      None
    | None ->
      warn_env s "not an integer";
      None)

let default_domain_count () =
  match env_domain_count () with
  | Some n -> n
  | None -> max 1 (Domain.recommended_domain_count ())

let rec worker_loop t last_gen =
  let wait_t0 = timer_start () in
  Mutex.lock t.lock;
  while (not t.stopped) && t.generation = last_gen do
    Condition.wait t.work_ready t.lock
  done;
  if t.stopped then Mutex.unlock t.lock
  else begin
    let gen = t.generation in
    let job = t.job in
    Mutex.unlock t.lock;
    record wait_t0 (fun w dt ->
        { w with queue_wait_s = w.queue_wait_s +. dt;
                 queue_waits = w.queue_waits + 1 });
    (match job with
    | Some f -> ( try f () with _ -> () (* jobs capture their own errors *))
    | None -> ());
    Mutex.lock t.lock;
    t.active <- t.active - 1;
    if t.active = 0 then Condition.broadcast t.work_done;
    Mutex.unlock t.lock;
    worker_loop t gen
  end

let create ?domains () =
  let n =
    match domains with
    | None -> default_domain_count ()
    | Some n when n >= 1 -> min n 64
    | Some n -> invalid_arg (Printf.sprintf "Pool.create: domains = %d" n)
  in
  let t =
    {
      domains = n;
      lock = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      generation = 0;
      active = 0;
      stopped = false;
      workers = [||];
    }
  in
  t.workers <- Array.init (n - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t 0));
  t

let shutdown t =
  Mutex.lock t.lock;
  if t.stopped then Mutex.unlock t.lock
  else begin
    t.stopped <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let shared_pool = ref None

let shared () =
  match !shared_pool with
  | Some p when not p.stopped -> p
  | _ ->
    let p = create () in
    shared_pool := Some p;
    at_exit (fun () -> shutdown p);
    p

(* Run [job] on every participating domain (workers + caller) and wait
   for all of them to leave it. *)
let run_job t job =
  Metrics.incr m_jobs;
  let t0 = timer_start () in
  Mutex.lock t.lock;
  t.job <- Some job;
  t.generation <- t.generation + 1;
  t.active <- Array.length t.workers;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.lock;
  (try job () with _ -> ());
  Mutex.lock t.lock;
  while t.active > 0 do
    Condition.wait t.work_done t.lock
  done;
  t.job <- None;
  Mutex.unlock t.lock;
  record t0 (fun w dt ->
      { w with job_s = w.job_s +. dt; jobs_timed = w.jobs_timed + 1 })

(* Chunk counting lives in both execution paths so pool_chunks_total is
   the same for every domain count (the serial path serves 1-domain
   pools and nested fan-outs). *)
let serial_chunks ~chunks ~init ~f =
  let state = init ~worker:0 in
  Array.init chunks (fun c ->
      Metrics.incr m_chunks;
      f state c)

let parallel_chunks (type s a) t ~chunks ~(init : worker:int -> s)
    ~(f : s -> int -> a) : a array =
  if chunks < 0 then invalid_arg "Pool.parallel_chunks: negative chunks";
  if chunks = 0 then [||]
  else if
    Domain.DLS.get inside_task || t.stopped || t.domains = 1
    || Array.length t.workers = 0 || chunks = 1
  then serial_chunks ~chunks ~init ~f
  else begin
    let results : a option array = Array.make chunks None in
    let errors : exn option array = Array.make chunks None in
    let init_error = Atomic.make None in
    let next = Atomic.make 0 in
    let worker_ids = Atomic.make 0 in
    let body () =
      Domain.DLS.set inside_task true;
      Fun.protect
        ~finally:(fun () -> Domain.DLS.set inside_task false)
        (fun () ->
          let w = Atomic.fetch_and_add worker_ids 1 in
          match init ~worker:w with
          | exception e ->
            (* Remember one init failure; other domains drain the chunks. *)
            ignore (Atomic.compare_and_set init_error None (Some e))
          | state ->
            let continue = ref true in
            while !continue do
              let c = Atomic.fetch_and_add next 1 in
              if c >= chunks then continue := false
              else begin
                Metrics.incr m_chunks;
                match f state c with
                | v -> results.(c) <- Some v
                | exception e -> errors.(c) <- Some e
              end
            done)
    in
    run_job t body;
    (* Deterministic error reporting: lowest failing chunk wins. *)
    Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map
      (function
        | Some v -> v
        | None -> (
          (* Only possible if every domain's [init] raised. *)
          match Atomic.get init_error with
          | Some e -> raise e
          | None -> failwith "Pool.parallel_chunks: chunk not executed"))
      results
  end
