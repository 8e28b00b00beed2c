type t = Naive | Ours_m | Ours_md | Ours_mds

let all = [ Naive; Ours_m; Ours_md; Ours_mds ]

let name = function
  | Naive -> "Naive"
  | Ours_m -> "OursM"
  | Ours_md -> "OursMD"
  | Ours_mds -> "OursMDS"

let of_name s =
  List.find_opt (fun m -> String.lowercase_ascii (name m) = String.lowercase_ascii s) all

let pp ppf m = Format.pp_print_string ppf (name m)

let meta_only_sync = function Naive -> false | Ours_m | Ours_md | Ours_mds -> true

let deferral = function Naive | Ours_m -> false | Ours_md | Ours_mds -> true

let speculation = function Ours_mds -> true | Naive | Ours_m | Ours_md -> false

type config = {
  mode : t;
  spec_history_k : int;
  offload_polling : bool;
  compress_dumps : bool;
  delta_dumps : bool;
  hot_function_scope : bool;
  continuous_validation : bool;
  memsync_tagged : bool;
}

let default_config mode =
  {
    mode;
    spec_history_k = 3;
    offload_polling = (mode = Ours_mds);
    compress_dumps = meta_only_sync mode;
    delta_dumps = meta_only_sync mode;
    hot_function_scope = true;
    continuous_validation = true;
    memsync_tagged = false;
  }
