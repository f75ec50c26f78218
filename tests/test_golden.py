"""Byte identity of CLI output: sha256 of stdout, recorded before the
moment-series L-values replaced the per-s incomplete-gamma series.

A refactor must keep these digests.  Change one only with a change that
means to alter the output, and say so in that change.
"""

import hashlib

import pytest

from zetapoly.cli import main

GOLDEN = {
    ("lfun", 12, 128): "4f39cbc37440d6330120fc45ea6e5d0f93754877a9fae3c4ae30c41e263b14bc",
    ("lfun", 12, 512): "7b19ea12f0f77ea97ea84aba1f5bc6445ecc7537cd2233bce8091eb9a12d66d5",
    ("lfun", 16, 128): "73bda6fbaae79dceb5a872add0aa24cf2b562df25d720f35c96db704c375c444",
    ("lfun", 16, 512): "ec206ba924412ce5d63a483882e8e63e76a59fc4b2723467786c2196e1e0f991",
    ("lfun", 18, 128): "0b308500cb61d89dc87dbca2d659c7449da6c275f8ba81c54e895724972a382c",
    ("lfun", 18, 512): "30d364be175c6ca9b48967cf77bb09198e1be17e3c86d341205fab9dca6d22d9",
    ("lfun", 20, 128): "6c4b961007bc476da8e3ec173bcf7431489597f9b9a695ccdb30bea5a98f8759",
    ("lfun", 20, 512): "0fccb076db08af5ea769b6da8c24996834d2eeabd7590deb7f6bdcd2705aaf85",
    ("lfun", 22, 128): "0856b5a638aa0117c2500c91ac494e20670c77dd0088042adbdfa465b4260960",
    ("lfun", 22, 512): "6caa4d73d4abf8ba7c7e8970b1b6aed9979c7281792547108bb1e64d51b90baf",
    ("lfun", 26, 128): "3b425e4fa7162606da9779a838c3a14952666d8f0e1930e3a7a2e386da27f7df",
    ("lfun", 26, 512): "7011f81d3ac38c14e1789ac2245c51e12146e21f69fec29b960f3611c678bbb3",
    ("periods", 12, None): "b53dd84b5f06436ca30d5975e24ae84385e76cfad698c6ecd52c33a67c4672e0",
    ("periods", 16, None): "d01f64e8caf25b247c2e56725b1d92b17a11e5d801d1a2f9ad8c783c3140b6e8",
    ("periods", 18, None): "f801dc2eebe537319bb8bac6f5a0b74a719689ac2babc3027530157f497620cf",
    ("periods", 20, None): "b674e291532a3b638eda0eacf391ac3521b3ef61c07506bfc2ccab29ad8685f6",
    ("periods", 22, None): "5352fc897f65578e90687011d12ddc8de4ce63f8c95466df3c07b35425010426",
    ("periods", 26, None): "a7fb6e3801b8c7fe8c2045e259a4b7c7cf50a3696eff0a78a168b05a1c78849e",
}


@pytest.mark.parametrize("command, weight, bits", list(GOLDEN))
def test_stdout_digest(capsys, command, weight, bits):
    argv = [command, "--weight", str(weight)]
    if bits is not None:
        argv += ["--prec-bits", str(bits)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == GOLDEN[command, weight, bits]
