let sink_mu = Mutex.create ()

let default_sink msg =
  Mutex.lock sink_mu;
  Printf.eprintf "pvtol: [warn] %s\n%!" msg;
  Mutex.unlock sink_mu

let sink = Atomic.make default_sink
let set_sink f = Atomic.set sink f

let warn fmt = Printf.ksprintf (fun msg -> (Atomic.get sink) msg) fmt

type once = bool Atomic.t

let once () = Atomic.make false

let warn_once o fmt =
  Printf.ksprintf
    (fun msg -> if Atomic.compare_and_set o false true then warn "%s" msg)
    fmt
