type t = {
  read : bool;
  write : bool;
  exec : bool;
  user : bool;
  present : bool;
}

let rwx = { read = true; write = true; exec = true; user = true; present = true }
let rw = { rwx with exec = false }
let rx = { rwx with write = false }

let priv_only t = { t with user = false }

let absent = { rwx with present = false }

let none = { read = false; write = false; exec = false; user = false; present = true }
