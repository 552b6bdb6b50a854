(* Peak resident set size (VmHWM) of a process, from /proc. *)

let vmhwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> (
            match float_of_string_opt kb with Some k -> k /. 1024. | None -> acc)
          | [] -> acc)
        | _ -> acc)
      0. (String.split_on_char '\n' text)

let self_peak_mb () = vmhwm_mb "self"
