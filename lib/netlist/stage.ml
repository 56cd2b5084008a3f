type t = Fetch | Decode | Execute | Writeback | Pipe_regs | Reg_file

let all = [ Fetch; Decode; Execute; Writeback; Pipe_regs; Reg_file ]

let name = function
  | Fetch -> "Fetch"
  | Decode -> "Decode"
  | Execute -> "Execute"
  | Writeback -> "Write Back"
  | Pipe_regs -> "Pipe Regs"
  | Reg_file -> "Register File"

let of_name s =
  let rec find = function
    | [] -> None
    | st :: rest -> if String.equal (name st) s then Some st else find rest
  in
  find all

let index = function
  | Fetch -> 0
  | Decode -> 1
  | Execute -> 2
  | Writeback -> 3
  | Pipe_regs -> 4
  | Reg_file -> 5

let equal a b = index a = index b
