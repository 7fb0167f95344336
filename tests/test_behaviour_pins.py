"""Certificate and dominance results pinned before the array evaluation path.

The reports of ``is_mn_convex`` and ``midpoint_verdict`` (verdict, min_gap,
witness, or the error class) over the criterion-10 corpus plus x^6 on
(-1, 1), under all 16 (rho, tau) pairs of identity, log, reciprocal and
power:2, and the ``dominates`` results (verdict, above, below) below were
recorded when every sample was still evaluated one float at a time.  The
array path must reproduce them exactly.  Stolarsky means are left out: their
formula changed (see ``tests/test_array_core.py``).  Twenty midpoint
reports under reciprocal or power:2 means were re-recorded when power
means of order gap |d| >= 1 became ratios of sums: every verdict and
witness pair stayed, and only gaps moved, each to within 4.7e-16 of the
50-digit oracle's gap at its pair.
"""

import re

import numpy as np
import pytest

from cdt.centroids import kmeans_cluster
from cdt.convexity import function_model, is_mn_convex
from cdt.divergences import QabdSpec, WeightedSet, midpoint_verdict
from cdt.errors import ParamError
from cdt.generators import IDENTITY, LOG, RECIPROCAL, Interval, power_generator
from cdt.means import dominates, parse_mean, quasi_arithmetic


def fm(name, lo, hi, f, d=None):
    return function_model(name, Interval(lo, hi), f, d)


CORPUS = {
    F.id: F
    for F in (
        fm("exp", 0.2, 6.0, np.exp, np.exp),
        fm("sinh", 0.1, 5.0, np.sinh, np.cosh),
        fm("exp(log^2 x)", 0.4, 7.0, lambda x: np.exp(np.log(x) ** 2)),
        fm("x^2", 0.2, 12.0, lambda x: np.asarray(x, float) ** 2, lambda x: 2.0 * x),
        fm("1/x", 0.2, 6.0, lambda x: 1.0 / np.asarray(x, float), lambda x: -1.0 / x**2),
        fm("x^6", -1.0, 1.0, lambda x: np.asarray(x, float) ** 6, lambda x: 6.0 * np.asarray(x, float) ** 5),
    )
}
GENS = {"identity": IDENTITY, "log": LOG, "reciprocal": RECIPROCAL, "power:2": power_generator(2)}

#: (F, rho, tau) -> (is_mn_convex report, midpoint_verdict report); a report
#: is (verdict, min_gap, witness) or the name of the error raised
CERTIFICATES = {
    ('exp', 'identity', 'identity'): (('convex', 8.943959695955704e-07, None), ('convex', 1.2396290291143443e-06, None)),
    ('exp', 'identity', 'log'): (('affine', -6.227889780805564e-16, None), ('affine', -6.998728514301789e-16, None)),
    ('exp', 'identity', 'reciprocal'): (('not_convex', -0.8849383363962676, (5.9208116413457805, 0.21659580339124213, 3.0687037223685114)), ('not_convex', -0.8728003175417728, (5.863481461511511, 0.36133226161037085, -19.61625150155406))),
    ('exp', 'identity', 'power:2'): (('convex', 1.788789539208504e-06, None), ('convex', 2.479253448066054e-06, None)),
    ('exp', 'log', 'identity'): (('convex', 5.3367074002652634e-06, None), ('convex', 1.5424021634713588e-06, None)),
    ('exp', 'log', 'log'): (('convex', 4.4423154038586855e-06, None), ('convex', 3.0277350980228137e-07, None)),
    ('exp', 'log', 'reciprocal'): (('not_convex', -0.5583437443712571, (5.999999994, 1.6103518254970488, 3.108393627473873)), ('not_convex', -0.5539487213602149, (5.983817621610905, 1.328734220511648, -9.291048853963211))),
    ('exp', 'log', 'power:2'): (('convex', 6.231096996699865e-06, None), ('convex', 2.7820262070976325e-06, None)),
    ('exp', 'reciprocal', 'identity'): (('convex', 9.778901082193436e-06, None), ('convex', 1.8451751840123871e-06, None)),
    ('exp', 'reciprocal', 'log'): (('convex', 8.884513058870536e-06, None), ('convex', 6.055469056700004e-07, None)),
    ('exp', 'reciprocal', 'reciprocal'): (('not_convex', -0.29898948093833566, (5.9208116413457805, 2.6679700757789946, 3.6784141927692606)), ('not_convex', -0.29979723321360924, (2.4145257252224077, 5.951771360436334, -9.306667979656439))),
    ('exp', 'reciprocal', 'power:2'): (('convex', 1.0673286705555021e-05, None), ('convex', 3.084798852313366e-06, None)),
    ('exp', 'power:2', 'identity'): (('not_convex', -0.04007406775807887, (1.0250395089266948, 0.21373715924465517, 0.7404017720476683)), ('not_convex', -0.03628007346878669, (1.0628312751633198, 0.23827144384890558, -0.0783713249796456))),
    ('exp', 'power:2', 'log'): (('not_convex', -0.6739624742041022, (5.9208116413457805, 0.21659580339124213, 4.189446516805198)), ('not_convex', -0.6470982841108578, (5.863481461511511, 0.36133226161037085, -41.21142233360334))),
    ('exp', 'power:2', 'reciprocal'): (('not_convex', -0.9624855798846792, (5.9208116413457805, 0.21659580339124213, 4.189446516805198)), ('not_convex', -0.9551110137999376, (5.863481461511511, 0.36133226161037085, -60.8276738351574))),
    ('exp', 'power:2', 'power:2'): (('not_convex', -0.008154330318509019, (0.2053856129231348, 0.5712949587273718, 0.42927915152213086)), ('not_convex', -0.001261778770839022, (0.2017440086165446, 0.26907648823498653, -0.0016005188093555223))),
    ('sinh', 'identity', 'identity'): (('convex', 2.9918771210502015e-08, None), ('convex', 8.847652134870537e-07, None)),
    ('sinh', 'identity', 'log'): (('not_convex', -0.5650421179802716, (0.10310345641292075, 4.775954706286107, 2.439529081349514)), ('not_convex', -0.5574994274409248, (3.265620614014688, 0.10093101287408315, -1.448772898852834))),
    ('sinh', 'identity', 'reciprocal'): (('not_convex', -0.9643693627375653, (4.924174132687829, 0.10960229060569301, 2.5168882116467612)), ('not_convex', -0.943898579994095, (4.558798908045665, 0.14601281604988975, -4.915676054520732))),
    ('sinh', 'identity', 'power:2'): (('convex', 2.457541415942441e-06, None), ('convex', 1.7735588130290338e-06, None)),
    ('sinh', 'log', 'identity'): (('convex', 2.9862599981028692e-06, None), ('convex', 1.1463540576949692e-06, None)),
    ('sinh', 'log', 'log'): (('convex', 1.9918298635457354e-08, None), ('convex', 2.575583207371349e-07, None)),
    ('sinh', 'log', 'reciprocal'): (('not_convex', -0.6478616263128584, (4.999999995, 0.21800512222119942, 1.0440429157922444)), ('not_convex', -0.6563770167998305, (0.1809854189245162, 4.678001583120664, -0.6928605985544565))),
    ('sinh', 'log', 'power:2'): (('convex', 4.882128081711359e-06, None), ('convex', 2.035147424738253e-06, None)),
    ('sinh', 'reciprocal', 'identity'): (('convex', 5.942514058498993e-06, None), ('convex', 1.4079428128193235e-06, None)),
    ('sinh', 'reciprocal', 'log'): (('convex', 2.9761723590315814e-06, None), ('convex', 5.19147308360726e-07, None)),
    ('sinh', 'reciprocal', 'reciprocal'): (('not_convex', -0.19581339073955029, (1.9988210494778138, 4.924174132687829, 2.843434856943424)), ('not_convex', -0.2000943380764188, (4.975095001039324, 2.431899187408917, -2.6203951879991507))),
    ('sinh', 'reciprocal', 'power:2'): (('convex', 7.306714747468135e-06, None), ('convex', 2.2967359473639904e-06, None)),
    ('sinh', 'power:2', 'identity'): (('not_convex', -0.14912533728541555, (1.207163415210623, 0.11129002299951664, 0.8572132115880529)), ('not_convex', -0.14487096376113995, (1.1900216431331314, 0.1187222963776601, -0.14487096376113995))),
    ('sinh', 'power:2', 'log'): (('not_convex', -0.8309648581234146, (4.924174132687829, 0.10960229060569301, 3.482779317666995)), ('not_convex', -0.7894361609356321, (4.558798908045665, 0.14601281604988975, -9.914972970151048))),
    ('sinh', 'power:2', 'reciprocal'): (('not_convex', -0.9865130363055798, (4.924174132687829, 0.10960229060569301, 3.482779317666995)), ('not_convex', -0.9767374533298266, (4.558798908045665, 0.14601281604988975, -12.267395297957512))),
    ('sinh', 'power:2', 'power:2'): (('convex', 3.3237816580641844e-08, None), ('convex', 1.5119701542002875e-06, None)),
    ('exp(log^2 x)', 'identity', 'identity'): (('convex', 9.517885464666559e-05, None), ('convex', 6.033560396512774e-07, None)),
    ('exp(log^2 x)', 'identity', 'log'): (('not_convex', -0.11428227096405483, (6.999999993, 2.3141522188068313, 4.657076105903416)), ('not_convex', -0.11822623266120598, (6.981585569247854, 1.6844216993082168, -1.014875557742199))),
    ('exp(log^2 x)', 'identity', 'reciprocal'): (('not_convex', -0.7094953929156068, (6.845210453288422, 1.1964939276682316, 4.020852190478327)), ('not_convex', -0.7116801787937594, (6.875887257701142, 1.1608410957042898, -4.925404129343642))),
    ('exp(log^2 x)', 'identity', 'power:2'): (('convex', 0.0001633642722161884, None), ('convex', 1.2858111681887815e-06, None)),
    ('exp(log^2 x)', 'log', 'identity'): (('convex', 8.308357811944552e-05, None), ('convex', 8.199904944874318e-07, None)),
    ('exp(log^2 x)', 'log', 'log'): (('convex', 3.125025090100483e-05, None), ('convex', 1.3753411643327839e-07, None)),
    ('exp(log^2 x)', 'log', 'reciprocal'): (('not_convex', -0.44382488252248514, (6.999999993, 2.3141522188068313, 4.024806270548777)), ('not_convex', -0.44193320988624624, (6.981585569247854, 1.6844216993082168, -2.0179617583797396))),
    ('exp(log^2 x)', 'log', 'power:2'): (('convex', 0.0001349088458400151, None), ('convex', 1.502445475181552e-06, None)),
    ('exp(log^2 x)', 'reciprocal', 'identity'): (('convex', 5.462537867550357e-05, None), ('convex', 1.0366248933005274e-06, None)),
    ('exp(log^2 x)', 'reciprocal', 'log'): (('convex', 2.7905762513336814e-06, None), ('convex', 3.541686630900223e-07, None)),
    ('exp(log^2 x)', 'reciprocal', 'reciprocal'): (('not_convex', -0.20590215783038526, (2.736693637400556, 6.999999993, 3.9349816621186933)), ('not_convex', -0.20419891105520005, (2.9199775494317692, 6.945119134120075, -1.5069001306719905))),
    ('exp(log^2 x)', 'reciprocal', 'power:2'): (('convex', 0.0001064521213724245, None), ('convex', 1.719079726151302e-06, None)),
    ('exp(log^2 x)', 'power:2', 'identity'): (('convex', 5.4811275210915554e-05, None), ('convex', 3.8672155880972416e-07, None)),
    ('exp(log^2 x)', 'power:2', 'log'): (('not_convex', -0.48748516212062937, (6.845210453288422, 1.1964939276682316, 4.913680080589091)), ('not_convex', -0.4912831457213147, (6.875887257701142, 1.1608410957042898, -6.26440136445054))),
    ('exp(log^2 x)', 'power:2', 'reciprocal'): (('not_convex', -0.8402936444678947, (6.845210453288422, 1.1964939276682316, 4.913680080589091)), ('not_convex', -0.844915218615187, (6.871352629450898, 1.0137370421315397, -10.63896300679063))),
    ('exp(log^2 x)', 'power:2', 'power:2'): (('convex', 0.00011555374398167635, None), ('convex', 1.06917683519063e-06, None)),
    ('x^2', 'identity', 'identity'): (('convex', 2.5992260180157656e-06, None), ('convex', 1.5553225874585624e-07, None)),
    ('x^2', 'identity', 'log'): (('not_convex', -0.9303218707339571, (0.20650084263792612, 11.437827329494304, 5.822164086066115)), ('not_convex', -0.9017413036216425, (7.823331274577908, 0.2022420309620933, -14.520250314789164))),
    ('x^2', 'identity', 'reciprocal'): (('not_convex', -0.9974848538103289, (0.20650084263792612, 11.437827329494304, 5.822164086066115)), ('not_convex', -0.9949231941297231, (7.823331274577908, 0.2022420309620933, -16.02070767384379))),
    ('x^2', 'identity', 'power:2'): (('convex', 2.618457997892454e-06, None), ('convex', 4.6659653417385085e-07, None)),
    ('x^2', 'log', 'identity'): (('convex', 5.198452036031531e-06, None), ('convex', 3.1106451727632995e-07, None)),
    ('x^2', 'log', 'log'): (('affine', -6.648461341528337e-16, None), ('affine', -6.64991310871811e-16, None)),
    ('x^2', 'log', 'reciprocal'): (('not_convex', -0.963903362272143, (0.20650084263792612, 11.437827329494304, 1.5368542486155525)), ('not_convex', -0.9483322488756829, (7.823331274577908, 0.2022420309620933, -1.5004573590546284))),
    ('x^2', 'log', 'power:2'): (('convex', 3.4916494372277344e-06, None), ('convex', 6.221287443237878e-07, None)),
    ('x^2', 'reciprocal', 'identity'): (('convex', 7.797511845111793e-06, None), ('convex', 4.6659675189934314e-07, None)),
    ('x^2', 'reciprocal', 'log'): (('convex', 2.599059809080262e-06, None), ('convex', 1.555322830035877e-07, None)),
    ('x^2', 'reciprocal', 'reciprocal'): (('not_convex', -0.44658597478592804, (11.256351149277654, 0.6029722754003964, 1.1446298278807707)), ('not_convex', -0.4550293648871961, (11.72225538741023, 0.5282277044601955, -0.4650050760262976))),
    ('x^2', 'reciprocal', 'power:2'): (('convex', 4.364840876561714e-06, None), ('convex', 7.776609305662715e-07, None)),
    ('x^2', 'power:2', 'identity'): (('affine', -5.221541686614477e-16, None), ('affine', -4.396774772418358e-16, None)),
    ('x^2', 'power:2', 'log'): (('not_convex', -0.963903362272143, (0.20650084263792612, 11.437827329494304, 8.089083279869756)), ('not_convex', -0.9483322488756829, (7.823331274577908, 0.2022420309620933, -29.04050062957834))),
    ('x^2', 'power:2', 'reciprocal'): (('not_convex', -0.9986970327447439, (0.20650084263792612, 11.437827329494304, 8.089083279869756)), ('not_convex', -0.9973304434937555, (7.823331274577908, 0.2022420309620933, -30.540957988632965))),
    ('x^2', 'power:2', 'power:2'): (('convex', 1.7453782248308403e-06, None), ('convex', 3.1106432402391396e-07, None)),
    ('1/x', 'identity', 'identity'): (('convex', 1.3108847438325633e-05, None), ('convex', 3.6124301855400276e-08, None)),
    ('1/x', 'identity', 'log'): (('convex', 6.554351409671089e-06, None), ('convex', 1.8062150247688535e-08, None)),
    ('1/x', 'identity', 'reciprocal'): (('affine', -2.3566719708809367e-16, None), ('affine', -2.220446049250313e-16, None)),
    ('1/x', 'identity', 'power:2'): (('convex', 1.5106868169637716e-05, None), ('convex', 5.418645213084439e-08, None)),
    ('1/x', 'log', 'identity'): (('convex', 6.554496028654544e-06, None), ('convex', 1.806215160771174e-08, None)),
    ('1/x', 'log', 'log'): (('affine', -3.994850407898831e-16, None), ('affine', -4.440892098500626e-16, None)),
    ('1/x', 'log', 'reciprocal'): (('not_convex', -0.5839997565249607, (0.2053856129231348, 5.7655565399179, 1.0881922457884114)), ('not_convex', -0.5704444798298723, (3.9470611349323184, 0.2011020153203123, -0.6402775048795323))),
    ('1/x', 'log', 'power:2'): (('convex', 1.0071097308415183e-05, None), ('convex', 3.612430188315585e-08, None)),
    ('1/x', 'reciprocal', 'identity'): (('affine', -1.453313845085865e-16, None), ('affine', -2.220446049250313e-16, None)),
    ('1/x', 'reciprocal', 'log'): (('not_convex', -0.6355040065927825, (0.2053856129231348, 5.7655565399179, 0.396641713646678)), ('not_convex', -0.588071763411344, (5.477761972721815, 0.2544641496901731, -1.2091881524246104))),
    ('1/x', 'reciprocal', 'reciprocal'): (('not_convex', -0.8671426707900856, (0.2053856129231348, 5.7655565399179, 0.396641713646678)), ('not_convex', -0.8303151279009603, (5.477761972721815, 0.2544641496901731, -1.707286895756775))),
    ('1/x', 'reciprocal', 'power:2'): (('convex', 5.035326447192651e-06, None), ('convex', 1.8062150303199687e-08, None)),
    ('1/x', 'power:2', 'identity'): (('convex', 1.96627650201342e-05, None), ('convex', 5.418644810628592e-08, None)),
    ('1/x', 'power:2', 'log'): (('convex', 1.3108268991479655e-05, None), ('convex', 3.612429649857418e-08, None)),
    ('1/x', 'power:2', 'reciprocal'): (('convex', 6.553917581808566e-06, None), ('convex', 1.806214622313007e-08, None)),
    ('1/x', 'power:2', 'power:2'): (('convex', 2.0142194616837306e-05, None), ('convex', 7.224859838173003e-08, None)),
    ('x^6', 'identity', 'identity'): (('convex', 2.2737367407898505e-13, None), ('convex', 1.7196613572291671e-09, None)),
    ('x^6', 'identity', 'log'): ('DomainError', ('not_convex', -0.04812807454092896, (0.5353045394316426, 0.9905996057851226, -0.04812807454092896))),
    ('x^6', 'identity', 'reciprocal'): ('DomainError', ('not_convex', -0.15777654148565662, (-0.5550932074621863, -0.992358247409328, -0.15777654148565662))),
    ('x^6', 'identity', 'power:2'): ('DomainError', ('convex', 2.5259287256689784e-09, None)),
    ('x^6', 'log', 'identity'): (('convex', 3.777905688084067e-56, None), 'DomainError'),
    ('x^6', 'log', 'log'): (('affine', -2.1672896037483832e-16, None), 'DomainError'),
    ('x^6', 'log', 'reciprocal'): (('not_convex', -0.07401035230835361, (3.105900223454855e-09, 3.3677802828715634e-09, 3.6517412723201487e-09)), 'DomainError'),
    ('x^6', 'log', 'power:2'): (('convex', 1.3475046037099602e-108, None), 'DomainError'),
    ('x^6', 'reciprocal', 'identity'): (('convex', 4.402763851390321e-56, None), 'DomainError'),
    ('x^6', 'reciprocal', 'log'): (('convex', 6.248581633062105e-57, None), 'DomainError'),
    ('x^6', 'reciprocal', 'reciprocal'): (('not_convex', -0.06144061215719698, (0.09560239002475827, 0.10366329275144484, 0.112403866276657)), 'DomainError'),
    ('x^6', 'reciprocal', 'power:2'): (('convex', 1.4684249278703025e-108, None), 'DomainError'),
    ('x^6', 'power:2', 'identity'): (('convex', 2.519975400973523e-56, None), 'DomainError'),
    ('x^6', 'power:2', 'log'): (('not_convex', -0.13116745122679974, (0.999999999, 0.16848548778957798, 0.7170729940514048)), 'DomainError'),
    ('x^6', 'power:2', 'reciprocal'): (('not_convex', -0.13590455892380832, (0.999999999, 0.16848548778957798, 0.7170729940514048)), 'DomainError'),
    ('x^6', 'power:2', 'power:2'): (('convex', 1.1060590685687624e-108, None), 'DomainError'),
}

#: (a, b, domain, samples, seed, verdict, above, below)
DOMINANCE = [
    ('power:0', 'power:1', (0.01, 10.0), 10000, 0, 'dominated_by', None, (6.373247256341329, 5.684389070132118, 0.9524016005300321)),
    ('power:2', 'power:2', (0.01, 10.0), 1000, 0, 'dominates', None, None),
    ('lehmer:0.5', 'lehmer:1.5', (0.1, 10.0), 5000, 0, 'dominated_by', None, (6.405920704482398, 8.863521797590664, 0.568006913927139)),
    ('lehmer:2', 'power:6', (0.5, 3.0), 4000, 0, 'incomparable', (0.6024338098404867, 1.6476547369206138, 0.7082252123713841), (2.0924042183036358, 2.008686395573632, 0.658471063378906)),
    ('lehmer:2', 'power:6', (0.5, 3.0), 2000, 7, 'incomparable', (2.7430345024239386, 1.7314672074888455, 0.23411136899415452), (2.0627386665116676, 1.0789494110283284, 0.8149502264579261)),
    ('dual:qa:identity', 'dual:qa:log', (0.1, 10.0), 3000, 0, 'dominated_by', None, (6.405920704482398, 1.7278302073470313, 0.5)),
    ('dual:qa:log', 'dual:qa:reciprocal', (0.1, 10.0), 3000, 0, 'dominated_by', None, (6.405920704482398, 1.7278302073470313, 0.5)),
    ('dual:power:2', 'qa:identity', (0.5, 8.0), 2000, 0, 'dominated_by', None, (5.277212654910907, 7.82960799664297, 0.5)),
    ('lagrange:log', 'qa:identity', (0.5, 8.0), 1000, 0, 'dominated_by', None, (5.277212654910907, 0.5975575503116397, 0.5)),
    ('lagrange:log', 'qa:log', (0.5, 8.0), 1000, 3, 'dominates', (1.1423687535771827, 1.8662896288611246, 0.5), None),
    ('lagrange:exp', 'qa:identity', (-1.0, 2.0), 1000, 0, 'dominates', (0.9108850619643629, -0.9609769798753441, 0.5), None),
    ('lehmer:-0.3', 'qa:identity', (0.5, 8.0), 2000, 0, 'dominated_by', None, (5.277212654910907, 7.82960799664297, 0.6034745582294528)),
]


def report(fn):
    try:
        rep = fn()
    except Exception as exc:
        return type(exc).__name__
    return (rep.verdict.value, rep.min_gap, rep.witness)


@pytest.mark.parametrize("key", list(CERTIFICATES), ids=["|".join(k) for k in CERTIFICATES])
def test_certificates_pinned(key):
    F, rho, tau = CORPUS[key[0]], GENS[key[1]], GENS[key[2]]
    grid = report(lambda: is_mn_convex(F, rho, tau))
    mid = report(lambda: midpoint_verdict(F, quasi_arithmetic(rho), quasi_arithmetic(tau)))
    assert (grid, mid) == CERTIFICATES[key]


@pytest.mark.parametrize("case", DOMINANCE, ids=[f"{c[0]}~{c[1]}/{c[4]}" for c in DOMINANCE])
def test_dominance_pinned(case):
    a, b, domain, samples, seed, verdict, above, below = case
    res = dominates(parse_mean(a), parse_mean(b), domain, samples=samples, seed=seed)
    assert (res.verdict.value, res.above, res.below) == (verdict, above, below)


SEEDED = {
    "is_mn_convex": lambda seed: is_mn_convex(CORPUS["exp"], LOG, LOG, seed=seed),
    "midpoint_verdict": lambda seed: midpoint_verdict(CORPUS["exp"], quasi_arithmetic(LOG), quasi_arithmetic(LOG),
                                                      seed=seed),
    "dominates": lambda seed: dominates(parse_mean("power:2"), parse_mean("power:1"), (0.5, 8.0), 100, seed),
    "kmeans_cluster": lambda seed: kmeans_cluster(QabdSpec(CORPUS["x^2"], IDENTITY, IDENTITY),
                                                  WeightedSet.uniform((0.5, 0.8, 4.0, 7.0)), 2, seed),
}


@pytest.mark.parametrize("seed", [2.5, -1, True, None, "3"])
@pytest.mark.parametrize("name", list(SEEDED))
def test_a_seed_is_a_nonnegative_integer(name, seed):
    """Each sampling entry point checks its seed before numpy's generator
    sees it (numpy raised a bare TypeError or ValueError, or drew fresh
    entropy for None)."""
    with pytest.raises(ParamError, match=f"^seed must be a nonnegative integer, got {re.escape(repr(seed))}$"):
        SEEDED[name](seed)


@pytest.mark.parametrize("name", list(SEEDED))
def test_a_numpy_integer_seed(name):
    assert SEEDED[name](np.int64(7)) == SEEDED[name](7)
