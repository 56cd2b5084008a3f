type level = Error | Warn | Info | Debug

let level_name = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"
  | Debug -> "debug"

let severity = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "error" | "err" -> Some Error
  | "warn" | "warning" -> Some Warn
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

(* Threshold as a severity int; -1 = quiet.  A plain int in an Atomic
   so concurrent set_level/level_enabled are race-free. *)
let threshold =
  let init =
    match Sys.getenv_opt "PVTOL_LOG" with
    | Some s when String.lowercase_ascii (String.trim s) = "quiet" -> -1
    | Some s -> (
      match level_of_string s with Some l -> severity l | None -> severity Warn)
    | None -> severity Warn
  in
  Atomic.make init

let set_level l = Atomic.set threshold (severity l)
let level_enabled l = severity l <= Atomic.get threshold

let sink_mu = Mutex.create ()

let default_sink level msg =
  Mutex.lock sink_mu;
  Printf.eprintf "pvtol: [%s] %s\n%!" (level_name level) msg;
  Mutex.unlock sink_mu

let sink = Atomic.make default_sink
let set_sink f = Atomic.set sink f

let logf level fmt =
  if level_enabled level then
    Printf.ksprintf (fun msg -> (Atomic.get sink) level msg) fmt
  else Printf.ksprintf ignore fmt

let err fmt = logf Error fmt
let warn fmt = logf Warn fmt
let info fmt = logf Info fmt
let debug fmt = logf Debug fmt

type once = bool Atomic.t

let once () = Atomic.make false

let warn_once o fmt =
  Printf.ksprintf
    (fun msg -> if Atomic.compare_and_set o false true then logf Warn "%s" msg)
    fmt
