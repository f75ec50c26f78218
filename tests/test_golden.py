"""Byte identity of CLI output: sha256 of stdout, recorded before the
moment-series L-values replaced the per-s incomplete-gamma series, and
sha256 of every file `report` writes, recorded before the multiprecision
Aberth loop was seeded by a complex-double pass.  The roots files hold
doubles, so `report` writes the same bytes at 128 and at 512 bits.

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

REPORT_GOLDEN = {
    "roots_w16_d10.json": "06612200520d8f80bd74797a9335da80d464caef24096637599b080611044408",
    "roots_w16_d5.json": "08eaac6550fadedb9997870b0d167248148a10da403d8fd6bca87c9d8b2dcc2d",
    "roots_w16_d6.json": "086500a832fcf6e11967070c1e128653378539e73b529f7cd6425e8ffea7ee41",
    "roots_w16_d7.json": "41fb1b9a720b05e7238a181fe5181be54be39df21daa1a880e8d1dcbeb7d202c",
    "roots_w16_d8.json": "965099a3d555c8680880787f8e7aeaf482e47aac55394dbe59c14388988145c5",
    "roots_w16_d9.json": "9449a4be6e828ef2937b4bf96f5158e8f6d7be62e0b1e901d6fe0606cbe7aae4",
    "roots_w18_d10.json": "323d1ccc3a7d6977b50320ff1286f76cbb25afb501de1ec89d44611b01c35285",
    "roots_w18_d11.json": "896499e21a10952b7bb012b80abde35033bb72be1edbf9d3cd5b29133a93078e",
    "roots_w18_d12.json": "2d37e5b87020c3fc1d26ce09efaa5e8eb5de3b5d14456f3e34537969e9816a3b",
    "roots_w18_d7.json": "6460a77964fc93630d1ecdf33a0f57b8ad3e5be06617ac6ecfca8908376677a9",
    "roots_w18_d8.json": "c72424d6884e67b89b478f352cf756779963ebbb756994fe9d95e3d2fffe8759",
    "roots_w18_d9.json": "a854502180356c8af2b28f354d2a3b6f24c2812fc4bf0320a3290189c95053a9",
    "roots_w20_d10.json": "40292ef141c9be980d1663d9011c1cb55650c3b24803ff670c92a1fd4baacf41",
    "roots_w20_d11.json": "1eceb58120220345ae411cd5be2e696e537fe737bf9b7384014a5e096ee97ab2",
    "roots_w20_d12.json": "904ffb0aa94f98552484423d7ebfdae54ad85e721a660bf6c2aa307502243b05",
    "roots_w20_d13.json": "c66ccb4c32cd9a018998e29d8d751b5859f510ca21c84bd61f79715dace7a13a",
    "roots_w20_d14.json": "e7c27a36731a6b95e3e67912f3149c9bcb4e47cf2662b5c29db876c9314e3f06",
    "roots_w20_d9.json": "f935691c7c77af1961e8eebc19bf1d15938346e79aa3b18d81cfee850c7f4237",
    "roots_w22_d11.json": "011b87c5c7bf3c61f3c84387ac75fda1b16145f631d62564d1fb308ffa910cd4",
    "roots_w22_d12.json": "ffe91f5b6428f8f5a4af5a712f385f3f32d33edf35a4987e88121e560db490fb",
    "roots_w22_d13.json": "5fe294f135fab5dcfaa079998b5f9d6d7ba2f351afe27b3435822fb3ac4e4ec4",
    "roots_w22_d14.json": "1c7250fc269cbd5dc967420a1475bab2eecb87a99ab267b9cb07c333d66cddfc",
    "roots_w22_d15.json": "dc2887bfdbf3decb5824849dc3df786aebec82e731107414ef308317c5ab8df4",
    "roots_w22_d16.json": "041ab2643fd4f11d328b0313391c97ef4ade2644e74948e3ff625e4dff3fffd4",
    "roots_w26_d15.json": "e561022ba06618280168063382bdd091e0519899f2215efbe51420f2ac9ed79f",
    "roots_w26_d16.json": "96414ceddb83ab4ad007054507f07d7fc3a9db2e5ddc94de56f557dc24415611",
    "roots_w26_d17.json": "2cecbd5a3a312ba2af93d8f4bc3ba52f006c03e4c378aac83658d78f9a3c3554",
    "roots_w26_d18.json": "79aff0df803d761e973243244d38775bf6287354c866fd370faaae3769b87392",
    "roots_w26_d19.json": "99d76ede8e7e17c416ba43dacb68ccdfa20d1e70c1c16c0d34bdee9ca370a39f",
    "roots_w26_d20.json": "d1464c56a49398bf22e791c9b1928cb7276546a1072295cf68d47d0dcdaf17de",
    "summary.csv": "e639522fe6d6f34e3b819c68b4d7534979fb03589f4afaadb0da8d7f86159d72",
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


@pytest.mark.parametrize("bits", (128, 512))
def test_report_file_digests(tmp_path, bits):
    assert main(["report", "--out-dir", str(tmp_path), "--prec-bits", str(bits)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert written == REPORT_GOLDEN
