type span = Sim.Time.span

module type S = sig
  type t

  val name : t -> string
  val mkdir : t -> string -> (span, Fs_error.t) result
  val create : t -> string -> (span, Fs_error.t) result
  val write : t -> string -> offset:int -> bytes:int -> (span, Fs_error.t) result
  val read : t -> string -> offset:int -> bytes:int -> (span, Fs_error.t) result
  val truncate : t -> string -> size:int -> (span, Fs_error.t) result
  val rename : t -> string -> string -> (span, Fs_error.t) result
  val unlink : t -> string -> (span, Fs_error.t) result
  val rmdir : t -> string -> (span, Fs_error.t) result
  val file_size : t -> string -> (int, Fs_error.t) result
  val exists : t -> string -> bool
  val readdir : t -> string -> (string list, Fs_error.t) result
  val sync : t -> span
end

let path_of_file_id id = "/data/f" ^ string_of_int id
