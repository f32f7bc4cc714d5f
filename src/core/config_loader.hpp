// Build a ClarensConfig from a configuration file — the paper's server
// is driven by the web-server configuration (admin DNs, virtual roots,
// user maps), and a standalone deployment needs the same.
//
// File format (util::Config: "key value", '#' comments, repeated keys):
//
//   host 0.0.0.0
//   port 8443
//   data_dir /var/lib/clarens
//   admin /O=grid.org/OU=People/CN=Site Admin
//   admin /O=grid.org/OU=People/CN=Backup Admin
//   credential_file /etc/clarens/server.cred
//   trust_file /etc/clarens/ca.cert
//   use_tls true
//   require_client_cert false
//   file_root /data /srv/clarens/data
//   sandbox_base /var/lib/clarens/sandbox
//   user_map_file /etc/clarens/.clarens_user_map
//   session_ttl 86400
//   allow system *
//   allow file /O=grid.org/OU=People
//   allow analysis group:cms.users
//   file_allow /data /O=grid.org/OU=People
//   station 127.0.0.1:9999
//   farm caltech-tier2
//   node clarens01
#pragma once

#include <string>

#include "core/server.hpp"
#include "util/config.hpp"

namespace clarens::core {

/// Interpret a parsed Config. Credential/trust/user-map files referenced
/// by it are loaded from disk. Throws clarens::ParseError/SystemError;
/// a key this loader does not read is a ParseError naming the key (the
/// daemon-level keys clarensd reads itself, station_listen_port and
/// discovery_server, are accepted).
ClarensConfig config_from(const util::Config& config);

/// Load + interpret a file.
ClarensConfig load_config_file(const std::string& path);

}  // namespace clarens::core
