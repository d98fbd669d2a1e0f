// ppstats_keygen: generates a Paillier key pair and writes it as two
// hex-encoded blob files.
//
//   ppstats_keygen --bits 1024 --out mykey [--seed N]
//
// produces mykey.pub and mykey.priv (see crypto/key_io.h for the format).

#include <cstdio>
#include <fstream>
#include <random>
#include <string>

#include "cli.h"
#include "common/bytes.h"
#include "crypto/chacha20_rng.h"
#include "crypto/key_io.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: ppstats_keygen --bits <modulus-bits> --out <prefix> "
               "[--seed <n>]\n");
  return 2;
}

bool WriteHexFile(const std::string& path, ppstats::BytesView blob) {
  std::ofstream out(path, std::ios::trunc);
  out << ppstats::ToHex(blob) << "\n";
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ppstats;

  size_t bits = 1024;
  std::string prefix;
  uint64_t seed = std::random_device{}();
  for (cli::Args args(argc, argv); args.Next();) {
    if (!(args.Value("--bits", &bits) || args.Value("--out", &prefix) ||
          args.Value("--seed", &seed))) {
      return Usage();
    }
  }
  if (prefix.empty()) return Usage();

  ChaCha20Rng rng(seed);
  Result<PaillierKeyPair> keys = Paillier::GenerateKeyPair(bits, rng);
  if (!keys.ok()) {
    std::fprintf(stderr, "keygen failed: %s\n",
                 keys.status().ToString().c_str());
    return 1;
  }
  if (!WriteHexFile(prefix + ".pub", SerializePublicKey(keys->public_key)) ||
      !WriteHexFile(prefix + ".priv",
                    SerializePrivateKey(keys->private_key))) {
    std::fprintf(stderr, "cannot write key files\n");
    return 1;
  }
  std::printf("wrote %s.pub and %s.priv (%zu-bit modulus)\n", prefix.c_str(),
              prefix.c_str(), bits);
  return 0;
}
