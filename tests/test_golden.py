"""Byte identity of CLI output: sha256 of stdout, recorded before the
moment-series L-values replaced the per-s incomplete-gamma series (the
1024-, 2048- and 4096-bit `lfun` digests: before the q-series truncation
was solved in closed form; the 256-, 384- and 15000-bit ones: while the
L-values were still summed and printed by mpmath; at 15000 bits each value
has 4514 digits, past CPython's 4300-digit int <-> str limit), and
sha256 of every file `report` writes, recorded when `report` began to take
its roots from the critical-line witness and list them in ascending
imaginary part.  The roots files hold doubles, so `report` writes the same
bytes at every precision from 53 to 1024 bits.

The `habiro --level L` digests (L = 1..24) and the `rv --weight 26 --d 200`
digest were recorded before RatPoly stored its coefficients as integer
numerators over one common denominator; those for L = 30 and 40 while the
battery still evaluated each T_k(r) by Horner.

The level-40 Habiro residue digest was recorded while residues were still
reduced by blocked division with the inverse of the reversed (q)_N.

The `certify --weight k` digests were recorded while the unit-circle
certificate still counted the roots of V, U = z^(e/2) V(z + 1/z), inside
(-2, 2).

A refactor must keep these digests.  Change one only with a change that
means to alter the output, and say so in that change.
"""

import hashlib
import json

import pytest

from zetapoly.cli import main
from zetapoly.habiro import habiro_qinv, habiro_r, psi_toric

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
    ("lfun", 12, 1024): "e1acbe601d7dac217c9ccdfd7b51b288160cbeb5e0c6ec0132e568aeb266dc27",
    ("lfun", 12, 2048): "4bcd27bd6324979620970c44518b3fa64cf4505fe50c88f6b883ae1fb8133b49",
    ("lfun", 16, 1024): "d767e198573d6c535d7c7b5f4af574e526dd19b909c79dfbfcaa2eb93cf31f8d",
    ("lfun", 16, 2048): "cb3f31f2b2f5927ed33e0e6d52bc19d640e793edd90a785b841370e7c3b5c814",
    ("lfun", 18, 1024): "79e6c221dab83f5f6a41481c009a1c7daf708ba0e36d488432143e1318be6d42",
    ("lfun", 18, 2048): "1f490c621142a2a889b529585b2930902b2f122945771ba15e04425ac838ea46",
    ("lfun", 20, 1024): "a8583916401b732aad5032b2bec925e091835a2b1db52f3f7e31415a27179730",
    ("lfun", 20, 2048): "94ecac77a170a7b39b328e61fd41e16b39825481049e081d6a83efab195a3851",
    ("lfun", 22, 1024): "443a42c4b43013d31733a6a275663b909f5a749c88fd2d0e104dcf1d5b284fca",
    ("lfun", 22, 2048): "89ae53f7bc8981c436d5f17f5d83e8e97a3396d5934ff28f30a750a2182cab97",
    ("lfun", 26, 1024): "201d5922b5d7f36e23d5ec5d4376a8ea4081188ed2d0562752ea0e9d1fefa677",
    ("lfun", 26, 2048): "7e064b73780a90314577b4406cd42730eb72b478457a3ce4fd5abe8d69198ba3",
    ("lfun", 26, 4096): "381d50f85f1021524244c2dbbee38f20e520073bedfbee3cf3d6a2df799e9a02",
    ("lfun", 12, 256): "fa4dc6ebffa521cef4119e8f0e7f2937bd89db7d06221cc7ad300de68a07afb6",
    ("lfun", 12, 384): "0d8f8703c12f34317e76da352f97288b5aea92b93c3c3f742e870897ec8ef011",
    ("lfun", 16, 256): "8bc3f8a79dc5a22666f0b3213402433116bac079f8fc9a58377c63cdf30bce15",
    ("lfun", 16, 384): "f64915ce5c6f65860c916a5b6d2cc511021d2b851fc84a7e74335ecc9daca7ad",
    ("lfun", 18, 256): "ee2478fd23b27a33b8615c6ac41aee6dcb2234c4f7398b6c6aaa4c0c6841c7f0",
    ("lfun", 18, 384): "ae44ec83b1650bd561ea98e2a5c486a11f8ab1fc99cfb19fc8f05573fadbe4ca",
    ("lfun", 20, 256): "bc6c7557391cf2f3ce6cab428fa4e71bd9090a79b2c922a56cba45c84b62daca",
    ("lfun", 20, 384): "8515c2ca6d9ad85cd7e4e3e4b2b0a8e088d99104c6ff4185d3b3b1bacac9102b",
    ("lfun", 22, 256): "c0522cb90771626d12c521b7616cecc91121d0cad3ded32de00fd4bdeeae8943",
    ("lfun", 22, 384): "92ee022bc9f5468d40b3ee7da35dd13bdd4537453f8dddb4d6d1d4fbbb1be435",
    ("lfun", 26, 256): "bbbae55f14241f0bb20b40b6157d1ab83ffda5aa2f5abcb37b539cc096842350",
    ("lfun", 26, 384): "acbb5966d5481b72fc4378510c3a19e813f33ccea374ac5aded394fd5ac041fd",
    ("lfun", 12, 15000): "f2e58e42983c1f150baa1518f46287f5eaca07688e1417c4a635194d80dbca87",
    ("periods", 12, None): "b53dd84b5f06436ca30d5975e24ae84385e76cfad698c6ecd52c33a67c4672e0",
    ("periods", 16, None): "d01f64e8caf25b247c2e56725b1d92b17a11e5d801d1a2f9ad8c783c3140b6e8",
    ("periods", 18, None): "f801dc2eebe537319bb8bac6f5a0b74a719689ac2babc3027530157f497620cf",
    ("periods", 20, None): "b674e291532a3b638eda0eacf391ac3521b3ef61c07506bfc2ccab29ad8685f6",
    ("periods", 22, None): "5352fc897f65578e90687011d12ddc8de4ce63f8c95466df3c07b35425010426",
    ("periods", 26, None): "a7fb6e3801b8c7fe8c2045e259a4b7c7cf50a3696eff0a78a168b05a1c78849e",
    ("certify", 12, None): "83820340ca3027452b2e751557400e229e01a075ebfc63ce99eb02ffbd212ddb",
    ("certify", 16, None): "a554fce74ddc913531a533507876f4ddeda84fe905d6ba28735528140a8265fd",
    ("certify", 18, None): "c2cb68673d1000dd452412cf5445fc7decb91f94055c14ff091b96782baa41b6",
    ("certify", 20, None): "112eacb6041c56ba216babb15508f9a8d2c2f31d1946f0d9c4d4fff52985b7d0",
    ("certify", 22, None): "83e0fcc51886edf2a7839fbdc4ce12f12b8f98e66f5bb84d31927c19aae22510",
    ("certify", 26, None): "0222b8a63ea9010577021a73d38d6b7c9f6b4673663d1181cfd4dd38f9ccb57f",
}

REPORT_GOLDEN = {
    "roots_w16_d10.json": "59bda2a0141c1f8034ce6f71ff728a8750c0f9b24452915a943b4f6a7a885d81",
    "roots_w16_d5.json": "2a6dfda6967f8a362d4acea3f5d41044867d4e66eb9debe82c14922af42115c1",
    "roots_w16_d6.json": "4cb1a03da95de8293b7c8b31254d9a0298ace48b3c3470312ad7e594397aa427",
    "roots_w16_d7.json": "6ca82d2c4c6e2a5e4cefc5e0727eb7c04d6270ed743123aa6df57eddc1d84372",
    "roots_w16_d8.json": "fa52d5fa553d049410a8c158ced2fcf3592af47dba64aba5c90cde9e308c3259",
    "roots_w16_d9.json": "219eaf95659167f5fea42dba9e75840bde49a74336968aa04b6285889f01f555",
    "roots_w18_d10.json": "8c31721acdc35901c2fa4a64d6a817ccd3d7dd74607515784d94c30134ba110f",
    "roots_w18_d11.json": "c9941075bf4f78f07b47798166b05ec0dd2715c2ea81dab22508a61ae582f79f",
    "roots_w18_d12.json": "ca06a19a5fa1485764bb9eaab12574600e2a89b49f6a824e71c0ce8977cb2a3e",
    "roots_w18_d7.json": "20d61440292724d5f6036db606eccd98373bc9d274d356f30b70f1c27b0308a9",
    "roots_w18_d8.json": "d4a50b673f4ccc025b6d54acef019bf7310a592f858a55130d5c8f9197679b65",
    "roots_w18_d9.json": "1fd8c1960ae051a145da0a83a67167f05e8f70d66b6cb97c875d61cf9392a4e7",
    "roots_w20_d10.json": "680eda93bc7f5ea7f505f18bcdd78041a2a53d7e0af99e8b05082bd11f35be43",
    "roots_w20_d11.json": "9efbe2c56f92b7abb844f4ba564bd66a3f43c9961921fc02a0f1d2fb95656a58",
    "roots_w20_d12.json": "ed6d8fcb24540163874fdd431ea05161e90813828043d00b7f14f294e9bfc470",
    "roots_w20_d13.json": "d7b1e9e9ca4ef2621ad4274357be33c9956604b7d593761e5610ff136cbf8092",
    "roots_w20_d14.json": "0fb18eb720fbc07841754f3860c0c019dc634027ae771572fdcf090086de860a",
    "roots_w20_d9.json": "9bcca7a6bebe67ef6eaa5784ad9b71e71148a6fc98bc813753cc316d1a092c4c",
    "roots_w22_d11.json": "deef14808a0db8f940817e73bdb25123f85b437121d8edf15038f07087b343c7",
    "roots_w22_d12.json": "b5a64a56f6ff3f9c75eac49292afbef60c62a5a69bff2db3af24206211d7af65",
    "roots_w22_d13.json": "e2daeacb251cb416c67d1332b9a48f40049cfd21cb43f396c5ba292f348b580c",
    "roots_w22_d14.json": "8dd70c7b0747cbe82b191f203123502e3fdc8cbd7dc1678a7a73e0ef2c82e63b",
    "roots_w22_d15.json": "2f63db870443a473ac8484342c3e339475292192ecdc08a5aec609b35fd1ea60",
    "roots_w22_d16.json": "c00c8582b4485471c1596a2693e049e51f2095d0db06c20bef95eac0ac3c4857",
    "roots_w26_d15.json": "2a6f410af03d9024d883e3193ccb5e7c2aa1c41729ceeb10ce15047880ecb418",
    "roots_w26_d16.json": "e924fb3043ad6f6619e401e364ffff0ed87950738b522e11f9413b33d2c51fef",
    "roots_w26_d17.json": "1a1978535ae93b8ffca1306f1ef79b0cc631c127bb2da74cc8c45c6c0e0a80df",
    "roots_w26_d18.json": "4c8fe6cb68096381543ac5f22925684cc6164e65eeb55fa321ce39068537f2b4",
    "roots_w26_d19.json": "ad8ed9ccd18b8c0c76227c9bff1dece253f6f8e4f5b408638390f1b60fe83604",
    "roots_w26_d20.json": "ebe6332f376c01a7b9c59254a7f062962982cf8819e449a2d14e58134e6a0b8b",
    "summary.csv": "e639522fe6d6f34e3b819c68b4d7534979fb03589f4afaadb0da8d7f86159d72",
}

# sha256 of repr(sorted((re, im) pairs)) of each roots file: the roots as a
# multiset of doubles, whatever order the file lists them in.  Recorded while
# `report` still solved each Q by complex Aberth; the same at every precision.
ROOTS_MULTISET = {
    "roots_w16_d10.json": "1f980a7e97c15deefc7518057b8fa70d08587a55ec52dbc41fad16ad46a8215c",
    "roots_w16_d5.json": "9c2603f7bd31b11602443bd2e0c912a251726fa19179b1baa43d54616ddb6784",
    "roots_w16_d6.json": "1401d76ebf9b6b46ff9e539152c0ae0c1ec846771c30dc379a2c5a972803f401",
    "roots_w16_d7.json": "abbf03609f5d7fc570ca7408663a6803a52846a47af702065e76c4ce205a37e1",
    "roots_w16_d8.json": "5e66217aafe8114d07f95bce8fdd5ffeccc2708bcce3917d05c337621a0562d7",
    "roots_w16_d9.json": "ae6cfd5dcbb2c16eff74495fee65705dbc12a99b75987633baaaa6df4fa0f62a",
    "roots_w18_d10.json": "8f14c021152103a4931d319171bfa17e9d820b487f7eec99e5844bd0604db819",
    "roots_w18_d11.json": "2b7120d70bb3fbcef1bb301839b035e1bb5648cc9682f1fb540b59a978434ee8",
    "roots_w18_d12.json": "3da9b01595be1a6200f3e87841dc88c15269fe57aa46a78e5d806acaec3ab477",
    "roots_w18_d7.json": "e47fe7eed30b43d5550b3395dc0d3d1b4a47598c0fa5086add9b855326ddc960",
    "roots_w18_d8.json": "05861709e9949beb80a490199dc18eb63dc409ac4a4edd6e41cc1807913a8216",
    "roots_w18_d9.json": "6f8f170257c0540105be020cdd7197183e0ce7e19eb82aec5427fe271afb7800",
    "roots_w20_d10.json": "2e85397d285a6335c33f066967efa07c780a60999243357ca3da77474ccc6dc4",
    "roots_w20_d11.json": "b4515c3e0135153ab681a05618e58d29a53f994dd4ade05a061e1ebbdeec667d",
    "roots_w20_d12.json": "4c5073ae45bb95ce9ebacb21f09b8557186de178f3bc622f9753f4205be4431a",
    "roots_w20_d13.json": "4a463cad3665dc13515d763e4c6f76ed1a57b099e6fc63232dece654697454f1",
    "roots_w20_d14.json": "cea62577bfec5341367dec256e2a35359802ced1c8e7dbe5b8511616ac242776",
    "roots_w20_d9.json": "bfeaaa15e2b476c9fda69e64b33d86c47b321ea72ccc7694460ae7bcdea947a9",
    "roots_w22_d11.json": "c6977a9eb376846e881d68441c7c68d5a3af6b544d269f7265163909b8e29809",
    "roots_w22_d12.json": "2ba4d0b06fad78313e576e1ed6824f063df357d44f35ffbd762f107773b76557",
    "roots_w22_d13.json": "e1b2d37c558f646872cc5b84f4a435cc1301e6c46c7379747ea14ce4f76ba298",
    "roots_w22_d14.json": "5a2b1085b9b24dc1c03836934c648be2f57755ea1e23003d38e71bfe0b17b7e1",
    "roots_w22_d15.json": "de87dde37bb590ae665393dc6069461023ac989163bbcdde16a0b4b508676188",
    "roots_w22_d16.json": "a88990ddd4dc110cd5db10c8a36d7efeecd2626336fca2e450ab95a6d672381f",
    "roots_w26_d15.json": "ccececf6a638b4d51645e8b2f983a536cc25dbee27932a0bee45ac4a00468070",
    "roots_w26_d16.json": "c1a1f2168280bb306742abb4db481aca11eb8ff4fccdcb54d204d23e1688a71c",
    "roots_w26_d17.json": "1c1cb5d5394b688298e51fe516764d1c0bfe84a901a24ec5ec829338ce9e918c",
    "roots_w26_d18.json": "7bced68b78a5c5f851fbbcd8baa6af77b8316207c4601b1836af190059e87550",
    "roots_w26_d19.json": "dc93fa688ff8666809af0600b07ea367fb4bcb0aab1f4ba520fae777dd646e00",
    "roots_w26_d20.json": "ceef09c8e19dcb3ff301c14d265f40abf6bf79fb55d2fd84053ca3800b5b040a",
}


# sha256 of `habiro --level L` stdout.
HABIRO_GOLDEN = {
    1: "3cbf7c2fcfbb6b722ac12af80073164ed494f4d5d764ff4b62832521c2ca5f30",
    2: "5b5b0d76b6015b927c7a1b74f6fffbc602c93bf58e14650eac22ebe6ffe23524",
    3: "a39989507412486f4933ebf15762d0399321c9b070861f3759e4285d61ad665e",
    4: "54b26305dcecd53c3a6a6ad83cdaf530e4541282a938cc3bc3133d8b90917885",
    5: "9d6c72442bd63ea212f328aee0419aa005f9b8cf0d20f40161411821da730524",
    6: "cdc4cbae6c0074f1277629060108f06db2839138f0cbf29196f302ec28a4f741",
    7: "e60395cfcb90fd1fd5b36d2426605385233ad6627701a3648d46336c1fffe7e3",
    8: "048fd57c4cfce11ba8411758143a6f7999a52b135f9834b7778fbcf5019d59d5",
    9: "0a1308dd3e0ea32bf999aa5994da9b79d7daeb08c5c71067135740d62139436d",
    10: "4bd167a8908b90e85f2afeabacd1898cb2f39c084781e480c024d0f5497b239d",
    11: "6c2f5c53dee00896407df539f8e33762cb4a80d60aff5372cfd9d1f45c5699a8",
    12: "c4356520b4cd2e36c8513cb6100e0ef5fa9264fcb5a46ae254f7ee93c3aaee26",
    13: "b836846cbe979efb037855c3726e4da2d141387796186c4b28bec0fa43ab3a17",
    14: "6dbc5380ab5e5228ce9e5d5f2da137be60ac0dadb5253da53c6d69eb5c44bf72",
    15: "5d682012359fc41f4af4a757d54278edf6a50163084e4d1be7e12eca7e54373f",
    16: "cdb51d8067b2cb0fb2b6cd0c2b4ca3846a571712ef1e8ba9ba40c0fada4bc5da",
    17: "f353bec0f84b593ee167668d8084beefb922849166db05ddb19c79529343ffaf",
    18: "2b11c7abe6fc9f5d17207e5a7cddbc131982849045581f161dfe5add55fa798e",
    19: "00522e07019780d53a1dbd37a509a8e6825b8fb29d1d410817e5b6d76f9d1c33",
    20: "3d5ad64f7c6030dd4906ccbf612077aaeb37818a1b7267e5ef863b0284c67788",
    21: "bc409066ac15e52f94bb4bb115839d6e52320ecc5a82b914612e8a99dabc3ef3",
    22: "6453773051a674e4851e19b5f4bb308e8381058cdddc5490869252473bfa28a3",
    23: "817f489f306ccaa0975fea6674691f3bb3449f2777af987730f2bad9cd970f0c",
    24: "430be98ceb5fbf4ccb005fa2f522ef374b610762b6456040285a94bce7b4e436",
    30: "c78726b2affb3421d22c5fd786122d6bc39e7595b6a21b7bfb5bba8df9f6f30a",
    40: "4ff17c534664dada1768079a52024710cc5577c28fa3c3fdd5cd339650a416f2",
}

# sha256 of json.dumps of the to_json_dict() of r, q^(-1), psi^k(r) for
# k = 2..8 and r * psi^3(r), all at level 40.
HABIRO_RESIDUES_40 = "d99bcd631a553bd748d031eb94accdaa8e24912748f0606b95a82e20539f3865"

# sha256 of `rv --weight W --d D` stdout.
RV_GOLDEN = {(26, 200): "faf5bbabdc929e70becb10e2dd9db333eefab2c6ebdc21e8687b667c048cd295"}

def roots_multiset_digest(path) -> str:
    roots = json.loads(path.read_text())["roots"]
    return hashlib.sha256(repr(sorted((r["re"], r["im"]) for r in roots)).encode()).hexdigest()


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


@pytest.mark.parametrize("bits", (53, 128, 256, 512, 1024))
def test_report_root_multisets(tmp_path, bits):
    assert main(["report", "--out-dir", str(tmp_path), "--prec-bits", str(bits)]) == 0
    written = {p.name: roots_multiset_digest(p) for p in tmp_path.glob("roots_*.json")}
    assert written == ROOTS_MULTISET
    summary = hashlib.sha256((tmp_path / "summary.csv").read_bytes()).hexdigest()
    assert summary == REPORT_GOLDEN["summary.csv"]


@pytest.mark.parametrize("level", list(HABIRO_GOLDEN))
def test_habiro_digest(capsys, level):
    assert main(["habiro", "--level", str(level)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == HABIRO_GOLDEN[level]


@pytest.mark.parametrize("weight, d", list(RV_GOLDEN))
def test_rv_digest(capsys, weight, d):
    assert main(["rv", "--weight", str(weight), "--d", str(d)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == RV_GOLDEN[weight, d]


def test_habiro_residue_digest():
    r = habiro_r(40)
    items = [r, habiro_qinv(40)] + [psi_toric(r, k) for k in range(2, 9)]
    items.append(r * psi_toric(r, 3))
    digest = hashlib.sha256(json.dumps([x.to_json_dict() for x in items]).encode())
    assert digest.hexdigest() == HABIRO_RESIDUES_40
